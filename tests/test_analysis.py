import gc
import hashlib
import importlib
import json
import random
import re
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from functools import lru_cache
from itertools import permutations
from math import prod
from pathlib import Path

import numpy as np
import pytest

from fdek import analysis, bulkeval, syntax
from fdek.analysis import (
    PAPER_FRAME_CLASSES, _claim_text, check_definability, check_indistinguishability,
    claims_from_text, enumerate_formulas, find_countermodel, model_from_indices,
)
from fdek.bulkeval import BulkSpace, frame_from_mask
from fdek.figures import load_frame, load_model, run_figures
from fdek.semantics import (
    FRAME_PROPERTIES, BoundExceededError, Evaluator, FourValue, Frame, Model, PointedModel,
    box_clause, frame_to_dict, model_to_dict, sequent_valid_on_frame, tri_clause,
)
from fdek.syntax import (
    And, Atom, Box, Not, Or, Sequent, Tri, parse_formula, parse_sequent, render, render_sequent,
    variables,
)
from fdek.tableau import Proved, prove

from conftest import (
    RENAMINGS, corpus, hand_sequents, random_formula, random_modal_formula, scalar_definability,
)
from reference_impl import (
    bulk_bits, bulk_supports, enumerate_frames, enumerate_models, model_by_values,
    near_and_within, size,
)


class TestModelEnumeration:
    @pytest.mark.parametrize("n,names,expected", [
        (1, ["p"], 8), (2, ["p"], 256), (1, ["p", "q"], 32)])
    def test_counts(self, n, names, expected):
        assert sum(1 for _ in enumerate_models(n, names)) == expected

    def test_first_model_is_empty_relation_all_true(self):
        first = next(enumerate_models(1, ["p"]))
        assert not first.frame.relation
        assert first.value("w0", "p") is FourValue.T

    def test_order_is_relation_major_then_valuation(self):
        models = list(enumerate_models(1, ["p"]))
        values = [m.value("w0", "p") for m in models[:4]]
        assert values == [FourValue.T, FourValue.B, FourValue.N, FourValue.F]
        assert not models[3].frame.relation and models[4].frame.relation

    def test_models_of_one_relation_share_its_frame(self):
        models = list(enumerate_models(2, ["p", "q"]))
        n_val = 4 ** 4
        for rel_mask in range(16):
            block = models[rel_mask * n_val:(rel_mask + 1) * n_val]
            assert all(m.frame is block[0].frame for m in block)
        assert models[0].frame is not models[n_val].frame

    def test_index_decode_matches_enumeration(self):
        everything = list(enumerate_models(2, ["p"]))
        n_val = 4 ** 2
        for rel_mask, val_index in ((0, 0), (3, 7), (15, 15), (9, 11)):
            decoded = model_from_indices(2, ["p"], rel_mask, val_index)
            assert decoded == everything[rel_mask * n_val + val_index]

    def test_decode_matches_the_reference(self):
        # Every relation mask and valuation index up to two worlds and two
        # variables, and a seeded sample at three worlds.
        points = [(n, names, mask, v) for n in (1, 2) for names in (["p"], ["p", "q"])
                  for mask in range(2 ** (n * n)) for v in range(4 ** (n * len(names)))]
        rng = random.Random(3)
        points += [(3, names, rng.randrange(512), rng.randrange(4 ** (3 * len(names))))
                   for names in (["p"], ["p", "q"]) for _ in range(200)]
        for n, names, mask, v in points:
            model = model_from_indices(n, names, mask, v)
            ref = model_by_values(frame_from_mask(n, mask), names, v)
            assert model.val == ref.val and list(model.val) == list(ref.val), (n, mask, v)
            assert model_to_dict(model) == model_to_dict(ref), (n, mask, v)

    @pytest.mark.parametrize("decode", [
        lambda: frame_from_mask(2, 17), lambda: frame_from_mask(2, 16),
        lambda: frame_from_mask(2, -1), lambda: model_from_indices(1, ["p"], 0, 5),
        lambda: model_from_indices(1, ["p"], 0, 4), lambda: model_from_indices(1, ["p"], 0, -1),
        lambda: model_from_indices(1, ["p"], 2, 0)],
        ids=["mask-17", "mask-16", "mask-minus-1", "index-5", "index-4", "index-minus-1",
             "mask-2-of-one-world"])
    def test_out_of_range_inputs_are_refused(self, decode):
        # 2 worlds have masks 0 to 15 and 1 world x 1 variable valuations
        # 0 to 3; once decoded, 17 dropped bit 4, -1 read as every pair,
        # 5 as B and -1 as F.
        with pytest.raises(ValueError, match="outside"):
            decode()

    @pytest.mark.parametrize("decode,message", [
        (lambda: frame_from_mask(2, 1.0), "relation mask is an integer, not float"),
        (lambda: frame_from_mask("2", 0), "a world count is an integer, not str"),
        (lambda: model_from_indices(2, ["p"], 0, 1.0), "valuation index is an integer, not float"),
        (lambda: model_from_indices(2.0, ["p"], 0, 0), "a world count is an integer, not float"),
        (lambda: model_from_indices(2, ["p"], "0", 0), "relation mask is an integer, not str")],
        ids=["float-mask", "str-worlds", "float-index", "float-worlds", "str-mask"])
    def test_a_mask_or_index_is_an_integer(self, decode, message):
        # Read by operator.index before a shift, a product or a bitwise and
        # reads it, as a world count is.
        with pytest.raises(TypeError, match=f"^{message}$"):
            decode()

    def test_numpy_integers_decode(self):
        assert frame_from_mask(np.int64(2), np.uint8(3)) == frame_from_mask(2, 3)
        assert model_from_indices(np.int32(2), ["p"], np.int64(3), np.uint16(5)) == \
            model_from_indices(2, ["p"], 3, 5)

    def test_the_last_mask_and_index_decode(self):
        assert frame_from_mask(2, 15).relation == {(a, b) for a in ("w0", "w1")
                                                   for b in ("w0", "w1")}
        assert model_from_indices(1, ["p"], 0, 3).value("w0", "p") is FourValue.F

    def test_a_repeated_variable_name_takes_one_slot(self):
        # A space or sweep over ["p", "p"] is the space over ["p"]: one
        # valuation slot per distinct name, as model_from_indices decodes
        # it.  With one slot per occurrence, this sequent's witness was
        # (1, 48, 0), whose decoded model does not refute it.
        s = parse_sequent("~[](~#p & (p & p)) |- ~~(#~#p & p)")
        once, twice = BulkSpace(2, ["p"]), BulkSpace(2, ["p", "p"])
        assert twice.names == once.names == ("p",)
        assert ([atoms.shape for _, _, atoms in twice._blocks()]
                == [atoms.shape for _, _, atoms in once._blocks()])
        r, v, w = hit = twice.first_countermodel(s)
        assert hit == once.first_countermodel(s) == (1, 12, 0)
        model = model_from_indices(2, ["p", "p"], int(twice.masks[r]), v)
        ev = Evaluator(model)
        assert ev.supports(f"w{w}", s.premise)[0] and not ev.supports(f"w{w}", s.conclusion)[0]
        program = bulkeval._compile(s)
        spaces = [bulkeval.sweep(2, names) for names in (["p"], ["p", "p"])]
        blocks = [list(space._blocks()) for space in spaces]
        assert len(blocks[0]) == len(blocks[1])
        for one, two in zip(*blocks):
            assert np.array_equal(spaces[0]._refuting(one, program),
                                  spaces[1]._refuting(two, program))
        assert spaces[0].first_countermodel(program) == spaces[1].first_countermodel(program)
        rng = random.Random(3)
        for _ in range(100):
            s = Sequent(random_modal_formula(rng, ["p"], 5, 2),
                        random_modal_formula(rng, ["p"], 5, 2))
            assert twice.first_countermodel(s) == once.first_countermodel(s), render_sequent(s)
        # The guard counts distinct names: 3 worlds x 4 names would be
        # refused, 3 worlds x 1 name is not.
        assert len(list(bulkeval.sweep(3, ["p"] * 4)._blocks())) == 1

    def test_bound_guard(self):
        with pytest.raises(BoundExceededError):
            next(enumerate_models(7, ["p", "q"]))

    @pytest.mark.parametrize("worlds,names", [(3, "pqrs"), (4, "pq")])
    def test_cell_guard(self, worlds, names):
        # Within the 12-slot rule, but one sweep over every relation would
        # visit 2.6e10 resp. 1.7e10 cells.
        with pytest.raises(BoundExceededError):
            next(enumerate_models(worlds, names))

    def test_frame_enumeration_count(self):
        assert sum(1 for _ in enumerate_frames(2)) == 16


class TestFormulaEnumeration:
    def test_size_one(self):
        assert list(enumerate_formulas("tri", ["p"], 1)) == [Atom("p")]

    def test_size_two_tri(self):
        got = set(enumerate_formulas("tri", ["p"], 2))
        assert got == {Atom("p"), Not(Atom("p")), Tri(Atom("p"))}

    def test_size_two_box(self):
        got = set(enumerate_formulas("box", ["p"], 2))
        assert got == {Atom("p"), Not(Atom("p")), Box(Atom("p"))}

    def test_duplicate_free_and_size_monotone(self):
        out = list(enumerate_formulas("tri", ["p", "q"], 5))
        assert len(out) == len(set(out))
        sizes = [size(f) for f in out]
        assert sizes == sorted(sizes)

    def test_counts_match_recurrence(self):
        # c(1)=1; c(n) = 2 c(n-1) + 2 sum_{i+j=n-1} c(i) c(j) for one variable
        c = {1: 1}
        for n in range(2, 8):
            c[n] = 2 * c[n - 1] + 2 * sum(c[i] * c[n - 1 - i]
                                          for i in range(1, n - 1))
        per_size = {}
        for f in enumerate_formulas("tri", ["p"], 7):
            per_size[size(f)] = per_size.get(size(f), 0) + 1
        assert per_size == c

    @pytest.mark.parametrize("language", ["tri", "box"])
    @pytest.mark.parametrize("leaves", [1, 2, 3])
    def test_counts_are_the_sum_over_the_sections(self, language, leaves):
        # _counts takes the sums over _sections by a recurrence with two
        # products per size; the reference is the sums themselves.
        unary, binary = analysis._operators(language)
        counts = [0, leaves]
        for n in range(2, 61):
            counts.append(sum(prod(counts[k] for k in sizes)
                              for _, sizes in analysis._sections(n, unary, binary)))
        assert analysis._counts(language, leaves, 60) == tuple(counts)

    def test_unknown_language(self):
        with pytest.raises(ValueError):
            next(enumerate_formulas("classical", ["p"], 2))

    @pytest.mark.parametrize("language,names,max_size,digest", [
        ("tri", ["p", "q"], 7, "2ee35697d6dd0e91447ab1ed3848082409460eebbf1d5fc3f22a39aecf859c7a"),
        ("box", ["p"], 9, "697328f596ed3bf67a22756434630091e30648485ad7de50cbe37ec56902ee13"),
    ])
    def test_golden_order(self, language, names, max_size, digest):
        # Every formula and its position: witnesses and counts depend on both.
        text = "\n".join(render(f) for f in enumerate_formulas(language, names, max_size))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCountermodelSearch:
    def test_atomic_non_sequitur(self):
        found = find_countermodel(parse_sequent("p |- q"), 1)
        assert found is not None
        assert model_to_dict(found.model) == {
            "worlds": ["w0"], "rel": [],
            "val": {"w0": {"p": "T", "q": "N"}}}
        assert found.world == "w0"

    def test_dead_end_refutes_factivity(self):
        # Smallest-first: the one-world dead end with a gap already refutes.
        found = find_countermodel(parse_sequent("#p |- p"), 2)
        assert found is not None
        assert model_to_dict(found.model) == {
            "worlds": ["w0"], "rel": [], "val": {"w0": {"p": "N"}}}
        assert found.world == "w0"

    def test_valid_sequent_has_no_countermodel(self):
        assert find_countermodel(parse_sequent("#p |- #~p"), 3) is None

    def test_renaming_variables_keeps_the_verdict(self):
        for same in zip(*(hand_sequents(mapping) for mapping in ({}, *RENAMINGS))):
            assert len({find_countermodel(s, 2) is None for s, _ in same}) == 1, str(same[0][0])

    def test_an_order_preserving_renaming_renames_the_witness(self):
        # p, q, r to a, b, c keeps the sorted order of the names, so each
        # slot keeps its place and the witness is the renamed one; the
        # cycle of RENAMINGS permutes the slots, and only the verdict is
        # kept.  Each renamed search runs right after its original, a sweep
        # of the same shapes under other names, so a plan shared across
        # names cannot pass a binding from one search to the next.
        order = {"p": "a", "q": "b", "r": "c"}
        for (s, _), (t, _), (u, _) in zip(hand_sequents(), hand_sequents(order),
                                          hand_sequents(RENAMINGS[0])):
            found, renamed, cycled = (find_countermodel(x, 3) for x in (s, t, u))
            assert (found is None) == (renamed is None) == (cycled is None), str(s)
            if found:
                assert (renamed.model.frame, renamed.world) == (found.model.frame, found.world)
                assert renamed.model.val == {order[name]: v
                                             for name, v in found.model.val.items()}, str(s)
        for prop, claims in PAPER_FRAME_CLASSES.items():
            renamed = claims_from_text("\n".join(_claim_text(c).replace("p", "a")
                                                 for c in claims))
            reports = [check_definability(prop, x, 3) for x in (claims, renamed)]
            assert {(r.verdict, json.dumps(r.witness), r.frames_checked)
                    for r in reports} == {("defines", "null", 2 + 16 + 512)}, prop
        refuted = [check_definability("transitive", claims_from_text(text), 3)
                   for text in ("#p |- ##p", "#a |- ##a")]
        assert refuted[0].witness == refuted[1].witness and refuted[0].verdict == "refuted"

    def test_found_pointed_model_actually_refutes(self):
        for text in ("#p |- ##p", "@p |- #p", "p | ~p |- #p"):
            s = parse_sequent(text)
            found = find_countermodel(s, 3)
            ev = Evaluator(found.model)
            assert ev.supports(found.world, s.premise)[0]
            assert not ev.supports(found.world, s.conclusion)[0]

    def test_agrees_with_naive_scan(self, chunk_budget):
        from fdek.syntax import variables
        # "#p |- ##p" is first refuted on relation mask 3, in the first of
        # two blocks of 2-world relations when the budget is tiny.
        for text in ("p |- q", "#p |- p", "p & q |- q | p", "#p |- #p & p", "#p |- ##p"):
            s = parse_sequent(text)
            names = sorted(variables(s.premise) | variables(s.conclusion))
            fast = find_countermodel(s, 2)
            naive = None
            for n in (1, 2):
                for m in enumerate_models(n, names):
                    ev = Evaluator(m)
                    for w in m.frame.worlds:
                        if ev.supports(w, s.premise)[0] and not ev.supports(w, s.conclusion)[0]:
                            naive = PointedModel(m, w)
                            break
                    if naive:
                        break
                if naive:
                    break
            if naive is None:
                assert fast is None
            else:
                assert fast is not None
                assert fast.world == naive.world
                assert fast.model == naive.model

    @pytest.mark.parametrize("text,rel_mask,val_index", [
        ("~#(p & q) |- p & p", 2, 129), ("~#p |- q | p", 2, 164)])
    def test_witness_past_the_first_valuation_block(self, chunk_budget, text, rel_mask, val_index):
        # Under the tiny budget these witnesses lie in the third block of
        # 64 valuations of relation 2: the block's offset counts.
        found = find_countermodel(parse_sequent(text), 2)
        assert found.model == model_from_indices(2, ["p", "q"], rel_mask, val_index)
        assert found.world == "w0"

    def test_golden_witnesses(self):
        # The first-witness order is part of the determinism contract: any
        # change to the enumeration or to the bulk operators shows up here.
        digest = hashlib.sha256()
        for s in corpus():
            if isinstance(prove(s), Proved):
                continue
            found = find_countermodel(s, 3)
            assert found is not None, str(s)
            record = [model_to_dict(found.model), found.world]
            digest.update(json.dumps(record, sort_keys=True).encode())
        assert digest.hexdigest() == \
            "6e46983fed1e1c1d7b252113a519a988f7e8783ec8bc0f8fafa43c5b13158f99"

    def test_bound_guard(self):
        with pytest.raises(BoundExceededError):
            find_countermodel(parse_sequent("p |- q"), 7)

    def test_world_guard_refuses_before_sweeping(self):
        # 6 worlds x 2 variables fits the slot limit; the cell budget is
        # checked before the sweep starts, whatever the sequent.
        with pytest.raises(BoundExceededError):
            find_countermodel(parse_sequent("p |- q"), 6)

    def test_a_world_count_is_an_integer(self):
        # The guard reads a count by operator.index: a float or a string is
        # refused by name before numpy, a comparison or range reads it, and
        # a numpy integer is a count.  A sweep reads it so before the plans
        # kept by shape, where 2.0 would find the plan of 2 kept here.
        s = parse_sequent("#p |- p")
        bulkeval.sweep(2, ["p"])
        calls = [lambda n: find_countermodel(s, n), lambda n: bulkeval.sweep(n, ["p"]),
                 lambda n: BulkSpace(n, ["p"]),
                 lambda n: check_definability("reflexive", PAPER_FRAME_CLASSES["reflexive"], n)]
        for call in calls:
            for bad in (1.5, "2", 2.0):
                with pytest.raises(TypeError, match=f"world count is an integer, not "
                                                    f"{type(bad).__name__}"):
                    call(bad)
        assert find_countermodel(s, np.int64(2)) == find_countermodel(s, 2)

    def test_matches_the_labelled_search(self, chunk_budget):
        # The search sweeps the isomorphism classes rooted and cut at the
        # sequent's modal depth d: some world reaches every world within d
        # steps, and no edge leaves a world d or more steps from it.  The
        # labelled BulkSpace sweeps all 2^(n*n) masks.  The corpus's first witnesses lie on masks 0 to
        # 3, the first four classes, where a mask equals its position in the
        # unfiltered sweep; the added sequents are first refuted on masks 2,
        # 3, 5, 6 and 7 of 2 worlds and 12, 28 and 98 of 3, not always at w0,
        # with # or [] or both; the last six hold on every model, and for
        # the three of depth 0 only the loopless world is swept.  Under the
        # tiny budget a two-variable space on 3 worlds is read in 64 blocks
        # per relation, too slow for the whole corpus, so those sequents stop
        # at 2 worlds.
        late = ["q & (##q | ##q) |- ##(q | p)", "#p |- #(p & #p)",
                "##p & ~#q |- #(~~q | #(p | p))", "p & #p |- #(p & #p)", "##p |- ####p",
                "[]p |- [][]p", "p |- []<>p", "[](p | q) |- []p | []q", "[]#p |- #[]p",
                "<>p & <>q |- <>(p & q)", "p & []p |- [][]p", "[]p & [][]p |- [][][]p",
                "~p & <>~p |- <><>~p | []#p",
                "[]p & []q |- [](p & q)", "<>(p | q) |- <>p | <>q", "[]~p |- ~<>p",
                "p & ~p |- p", "~~p |- p | ~p & p", "p & q |- q | p"]
        for s in corpus() + [parse_sequent(text) for text in late]:
            names = sorted(variables(s.premise, s.conclusion))
            if len(names) > 2:
                continue
            max_worlds = 2 if chunk_budget == "tiny" and len(names) == 2 else 3
            found = find_countermodel(s, max_worlds)
            expected = _labelled_first_countermodel(s, max_worlds)
            assert (found and (found.model, found.world)) == expected, str(s)

    def test_matches_the_labelled_search_at_four_worlds(self):
        # First refuted on mask 328 of 4 worlds (w1 -> w2 -> w0 -> w3) at
        # w1, a chain of three steps that the cut at depth 3 keeps, as no
        # edge leaves w3; and a valid sequent of depth 1, for which 2 of
        # the 3 044 classes are swept.
        for text in ("p & []p & [][]p |- [][][]p", "#p |- #~p"):
            s = parse_sequent(text)
            found = find_countermodel(s, 4)
            assert (found and (found.model, found.world)) == \
                _labelled_first_countermodel(s, 4), text


# The block budget before any test sets its own.
_DEFAULT_BLOCK_PAIRS = bulkeval._BLOCK_PAIRS


@lru_cache(maxsize=None)
def _labelled_first_countermodel(s, max_worlds):
    """``(model, world)`` of the first countermodel over every labelled
    relation, smallest world count first, or None; the masks are read in
    ascending runs of 4 096, so 4 worlds fit in memory.  The answers are
    kept, so each space is made under the default block budget, whatever
    budget the asking test set: a space takes its budget when it is made."""
    names = sorted(variables(s.premise, s.conclusion))
    for n in range(1, max_worlds + 1):
        for start in range(0, 2 ** (n * n), 4096):
            masks = range(start, min(start + 4096, 2 ** (n * n)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bulkeval, "_BLOCK_PAIRS", _DEFAULT_BLOCK_PAIRS)
                space = BulkSpace(n, names, masks)
            hit = space.first_countermodel(s)
            if hit is not None:
                r, v, w = hit
                return model_from_indices(n, names, masks[r], v), f"w{w}"
    return None


class TestBulkAgreement:
    def test_bulk_supports_match_scalar_exhaustively(self):
        formulas = list(enumerate_formulas("tri", ["p"], 4))
        formulas += [Box(Atom("p")), Not(Box(Not(Atom("p"))))]
        for n in (1, 2):
            space = BulkSpace(n, ["p"])
            models = list(enumerate_models(n, ["p"]))
            n_val = 4 ** n
            for f in formulas:
                pos, neg = bulk_supports(space, f)
                for r in range(2 ** (n * n)):
                    for v in range(n_val):
                        m = models[r * n_val + v]
                        ev = Evaluator(m)
                        for w_idx, w in enumerate(m.frame.worlds):
                            expect = ev.supports(w, f)
                            r_idx = r if pos.shape[0] > 1 else 0
                            got = (bool(pos[r_idx, v, w_idx]),
                                   bool(neg[r_idx, v, w_idx]))
                            assert got == expect

    @pytest.mark.parametrize("n,names,sample,max_size",
                             [(3, "p", 6, 4), (4, "p", 3, 4), (2, "pq", 4, 3)])
    def test_bulk_supports_match_scalar_on_sampled_relations(self, n, names, sample, max_size):
        # Every valuation on a seeded sample of relations, the empty and the
        # full relation among them.
        top = 2 ** (n * n) - 1
        masks = [0, top] + random.Random(n).sample(range(1, top), sample - 2)
        formulas = set(enumerate_formulas("tri", names, max_size))
        formulas |= set(enumerate_formulas("box", names, max_size))
        space = BulkSpace(n, names, masks)
        shape = (len(masks), 4 ** (n * len(names)), n)
        bulk = {f: [np.broadcast_to(x, shape).tolist() for x in bulk_supports(space, f)]
                for f in formulas}
        for r, mask in enumerate(masks):
            for v in range(shape[1]):
                ev = Evaluator(model_from_indices(n, names, mask, v))
                for f, (pos, neg) in bulk.items():
                    for w in range(n):
                        got = (pos[r][v][w], neg[r][v][w])
                        assert got == ev.supports(f"w{w}", f), (render(f), mask, v, w)

    def test_bulk_supports_match_scalar_on_a_ten_world_frame(self):
        # 16-bit bitsets: worlds 8 and 9 live in the second byte, and bits
        # 10 to 15 stand for no world.
        n = 10
        pairs = [(i, (i + 1) % n) for i in range(n)] + [(9, 9), (8, 2)]
        mask = sum(1 << i * n + j for i, j in pairs)
        worlds = [f"w{i}" for i in range(n)]
        space = bulkeval.sweep(Frame(worlds, [(worlds[i], worlds[j]) for i, j in pairs]), ["p"])
        sample = [0, 4 ** n - 1] + random.Random(10).sample(range(1, 4 ** n - 1), 30)
        models = [Evaluator(model_from_indices(n, ["p"], mask, v)) for v in sample]
        for f in [Atom("p"), Tri(Atom("p")), Not(Tri(Not(Tri(Atom("p"))))), Box(Not(Atom("p")))]:
            for bits in bulk_bits(space, f):
                assert not (bits & np.uint16(0xFFFF ^ 0x3FF)).any(), render(f)
            pos, neg = (x[0, sample] for x in bulk_supports(space, f))
            for i, ev in enumerate(models):
                for w in range(n):
                    assert (pos[i, w], neg[i, w]) == ev.supports(f"w{w}", f), (render(f), sample[i], w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bitsets_carry_no_stray_bits(self, n):
        # Bits at and above n stand for no world: an unmasked complement
        # would set them, and read as a countermodel that does not exist.
        # At 4 worlds a seeded sample of relations stands in for all 65536.
        masks = None
        if n == 4:
            masks = [0, 2 ** 16 - 1] + random.Random(4).sample(range(1, 2 ** 16 - 1), 254)
        space = BulkSpace(n, ["p"], masks)
        stray = np.uint8(0xFF ^ ((1 << n) - 1))
        for language in ("tri", "box"):
            for f in enumerate_formulas(language, ["p"], 4):
                program = bulkeval._compile(f, space.names)
                refuting = [space._refuting(block, program) for block in space._blocks()]
                for bits in (*bulk_bits(space, f), *refuting):
                    assert not (bits & stray).any(), (n, render(f))

    def test_first_countermodel_takes_the_lowest_world(self):
        # Both worlds refute these first cells; enumeration visits w0 first.
        # Searches that start at one world met no such cell on any sequent
        # tried, so the golden witnesses do not pin this rule.
        assert BulkSpace(2, ["p"]).first_countermodel(parse_sequent("p |- ~p")) == (0, 0, 0)
        total = BulkSpace(2, ["p"], [15])
        assert total.first_countermodel(parse_sequent("p |- #p")) == (0, 1, 0)

    def test_world_guard(self):
        with pytest.raises(BoundExceededError):
            BulkSpace(6, ["p"])

    def test_a_variable_outside_the_space_is_refused(self):
        with pytest.raises(ValueError, match="variable 'q' not in this space"):
            BulkSpace(2, ["p"]).first_countermodel(parse_sequent("q |- q"))

    @pytest.mark.parametrize("masks,bad", [
        ([16], 16), ([0, 5, -1], -1), ([3, 2 ** 40], 2 ** 40),
        # Past 64 bits, and past int64 beside a negative mask.
        ([2 ** 70], 2 ** 70), ([-1, 2 ** 63], -1),
        (np.array([2 ** 64 - 1], dtype=np.uint64), 2 ** 64 - 1),
        # Not integers: neither truncated nor parsed, the first in input order.
        ([1.5], 1.5), (["3"], "3"), ([0, "3"], "3"), ([3, 2.0, 16], 2.0), (np.array([1.0]), 1.0),
    ])
    def test_a_labelled_space_refuses_a_mask_outside_the_enumeration(self, masks, bad):
        # Bit i*n + j of a mask is the pair (i, j); a mask outside
        # [0, 2^(n*n)) names no relation, and its frame would not decode.
        why = r"is outside \[0, 16\)" if isinstance(bad, int) else "is not an integer"
        with pytest.raises(ValueError, match=rf"^relation mask {re.escape(repr(bad))} {why}$"):
            BulkSpace(2, ["p"], masks)

    def test_an_empty_labelled_space_answers_for_no_relation(self):
        # A space of no relation has no block, so no countermodel and an
        # empty validity vector, whatever the claim reads.
        space = BulkSpace(2, ["p"], [])
        for text in ("p |- ~p", "#p |- p"):
            s = parse_sequent(text)
            assert space.first_countermodel(s) is None, text
            assert space.valid_per_relation(s).shape == (0,), text
        assert space.valid_per_relation(parse_formula("#p")).shape == (0,)
        assert list(space._blocks()) == []

    @pytest.mark.parametrize("n,names,masks", [
        (2, ["p"], None), (2, ["p", "q"], [0, 5, 9, 15]), (3, ["p"], range(0, 512, 7)),
        (1, ["p", "q", "r"], None)])
    def test_a_labelled_space_is_read_in_budgeted_blocks(self, chunk_budget, n, names, masks):
        # The blocks tile the (relation, valuation) grid once, in
        # enumeration order, each within the budget.  Each space is one
        # block at the default budget; under the tiny one the 2 x 2 space
        # is read in aligned blocks of 64 valuations of one relation, and
        # the others in blocks of whole relations.
        space = BulkSpace(n, names, masks)
        relations, n_val = range(len(space.succ)), 4 ** (n * len(names))
        cells, sizes = [], []
        for rows, v, atoms in space._blocks():
            sizes.append(len(relations[rows]) * atoms.shape[-1])
            cells += [(r, v + u) for r in relations[rows] for u in range(atoms.shape[-1])]
        assert cells == [(r, v) for r in relations for v in range(n_val)]
        assert max(sizes) <= bulkeval._BLOCK_PAIRS
        assert (len(sizes) > 1) == (chunk_budget == "tiny")

    def test_a_labelled_space_answers_alike_under_both_budgets(self, monkeypatch):
        # Seeded sequents and formulas of both modalities on labelled spaces
        # that the tiny budget splits by relations and by valuations; the
        # sequents a & b |- b | c hold everywhere.
        rng = random.Random(40)
        cases = []
        for n, names, masks in [(2, ["p"], None), (2, ["p", "q"], [0, 5, 9, 15]),
                                (3, ["p"], range(0, 512, 7))]:
            for i in range(8):
                a, b, c = (random_modal_formula(rng, names, 3, 2) for _ in range(3))
                claim = [Sequent(a, b), Sequent(And(a, b), Or(b, c)), a][i % 3]
                cases.append((n, names, masks, claim))

        def answers():
            out = []
            for n, names, masks, claim in cases:
                space = BulkSpace(n, names, masks)
                out.append((space.first_countermodel(claim),
                            space.valid_per_relation(claim).tolist()))
            return out
        default = answers()
        monkeypatch.setattr(bulkeval, "_BLOCK_PAIRS", 100)
        assert answers() == default
        assert 4 <= sum(hit is None for hit, _ in default) <= len(default) - 4

    @pytest.mark.parametrize("worlds,k,blocks", [(3, 3, 26), (4, 1, 1), (2, 1, 1)])
    def test_relation_sweeps_split_by_relations(self, worlds, k, blocks):
        space = bulkeval.sweep(worlds, [f"p{i}" for i in range(k)])
        starts = [(rows.start, v) for rows, v, _ in space._blocks()]
        rows = [space.succ[rows] for rows, _, _ in space._blocks()]
        assert len(starts) == blocks
        n_val = 4 ** (worlds * k)
        assert all(len(succ) * n_val <= bulkeval._BLOCK_PAIRS for succ in rows)
        ends = [(r + len(succ), 0) for succ, (r, _) in zip(rows, starts)]
        reps = bulkeval._relation_list(worlds, None).masks
        assert starts == [(0, 0)] + ends[:-1] and ends[-1] == (len(reps), 0)
        assert np.concatenate([space.masks[rows] for rows, _, _ in space._blocks()]).tolist() \
            == reps.tolist()

    @pytest.mark.parametrize("n,blocks", [(12, 16), (11, 4)])
    def test_given_frames_split_by_valuations(self, n, blocks):
        worlds = [f"w{i}" for i in range(n)]
        space = bulkeval.sweep(Frame(worlds, [(w, w) for w in worlds]), ["p"])
        read = [(rows.start, v, atoms.shape[-1]) for rows, v, atoms in space._blocks()]
        assert len(read) == blocks
        widths = [w for _, _, w in read]
        assert all(w <= bulkeval._BLOCK_PAIRS for w in widths)
        starts = [(r, v) for r, v, _ in read]
        ends = [(0, v + w) for (_, v), w in zip(starts, widths)]
        assert starts == [(0, 0)] + ends[:-1] and ends[-1] == (0, 4 ** n)

    def test_blocks_and_gathers_hold_at_most_the_budget(self, monkeypatch):
        # Every block of the golden-witness searches, of acceptance
        # criterion 3's definability sweeps, of a 12-world frame and of a
        # valid 3-world, 3-variable search holds at most _BLOCK_PAIRS
        # (relation, valuation) pairs, and every gather takes at most that
        # many codes.  So does the array that holds a block's atoms, per
        # support of each atom: a cached table or the block's own, never
        # the full 4^12 valuations of the frame.
        pairs, codes, atoms = [], [], []
        blocks, gather = BulkSpace._blocks, bulkeval._gather

        def recording(space):
            for block in blocks(space):
                rows, _, table = block
                pairs.append(len(space.succ[rows]) * table.shape[-1])
                root = table
                while isinstance(root.base, np.ndarray):
                    root = root.base
                atoms.append(root.size // (2 * len(space.names)))
                yield block

        def counting(tables, code):
            codes.append(code.size)
            return gather(tables, code)
        monkeypatch.setattr(BulkSpace, "_blocks", recording)
        monkeypatch.setattr(bulkeval, "_gather", counting)
        for s in corpus():
            find_countermodel(s, 3)
        for prop, claims in PAPER_FRAME_CLASSES.items():
            assert check_definability(prop, claims, 3).verdict == "defines", prop
        assert check_definability("transitive", [parse_sequent("#p |- ##p")], 3).verdict == \
            "refuted"
        assert check_definability("euclidean", [parse_sequent("@p |- ##p")], 2).verdict == \
            "refuted"
        worlds = [f"w{i}" for i in range(12)]
        assert sequent_valid_on_frame(Frame(worlds, [(w, w) for w in worlds]),
                                      parse_sequent("#(p | ~p) |- p | ~p"))
        assert find_countermodel(parse_sequent("#(p & q) & r |- #(q & p) & r"), 3) is None
        assert max(pairs) <= bulkeval._BLOCK_PAIRS and max(codes) <= bulkeval._BLOCK_PAIRS
        assert max(pairs) == bulkeval._BLOCK_PAIRS  # the 3-variable search and the frame
        assert max(atoms) == bulkeval._BLOCK_PAIRS  # the frame

    def test_holds_everywhere_matches_model_scan(self):
        s = parse_sequent("p & q |- p")
        assert BulkSpace(2, ["p", "q"]).first_countermodel(s) is None
        s2 = parse_sequent("p |- q")
        assert BulkSpace(1, ["p", "q"]).first_countermodel(s2) is not None


def _renamed(mask, n, perm):
    """``mask`` with world ``i`` renamed ``perm[i]``."""
    return sum(1 << perm[i] * n + perm[j]
               for i in range(n) for j in range(n) if mask >> i * n + j & 1)


class TestRepresentatives:
    @pytest.mark.parametrize("n,classes", [(1, 2), (2, 10), (3, 104), (4, 3044)])
    def test_class_counts(self, n, classes):
        # OEIS A000595: relations on n unlabelled points.
        assert len(bulkeval._relation_list(n, None).masks) == classes

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_representative_per_orbit_and_the_smallest(self, n):
        reps = bulkeval._relation_list(n, None).masks.tolist()
        assert reps[0] == 0 and reps == sorted(set(reps))
        covered = set()
        for m in reps:
            orbit = {_renamed(m, n, perm) for perm in permutations(range(n))}
            assert min(orbit) == m
            assert not orbit & covered, m
            covered |= orbit
        assert len(covered) == 2 ** (n * n)


def _bfs_rooted(n, mask, depth):
    """Some world of ``frame_from_mask(n, mask)`` reaches every world
    within ``depth`` steps, and no edge leaves a world ``depth`` or more
    steps from it, by breadth-first search from each world."""
    frame = frame_from_mask(n, mask)
    senders = [w for w in frame.worlds if frame.successors(w)]
    for root in frame.worlds:
        near, within = near_and_within(frame.successors, root, depth)
        if len(within) == n and all(w in near for w in senders):
            return True
    return False


class TestRootedSweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_breadth_first_search(self, n):
        reps = bulkeval._relation_list(n, None).masks.tolist()
        for depth in range(5):
            rooted = [m for m in reps if _bfs_rooted(n, m, depth)]
            assert bulkeval._relation_list(n, depth).masks.tolist() == rooted, (n, depth)

    @pytest.mark.parametrize("n,counts", [
        (2, [0, 2, 7, 7, 7]), (3, [0, 2, 64, 80, 80]), (4, [0, 2, 1411, 2520, 2638]),
        (1, [1, 2, 2, 2, 2])])
    def test_class_counts(self, n, counts):
        # Rooted and cut at each depth 0 to 4: the cut drops classes only
        # below depth n, and from n on every rooted class is kept.
        assert [len(bulkeval._relation_list(n, depth).masks) for depth in range(5)] == counts
        assert len(bulkeval._relation_list(n, 2000).masks) == counts[-1]

    def test_matches_the_labelled_search_on_random_sequents(self, chunk_budget):
        # Seeded sequents of modal depth 0 to 3 over #, [], @ and <>, of
        # one or two variables up to 3 worlds, every fifth of one variable
        # up to 4; then named ones whose witness keeps an edge out of a
        # world d - 1 steps from the refuting world at depth d = n (CI's
        # "#[]p |- []#p" at w1 of w0 -> w0, w0 -> w1, w1 -> w0, and
        # "##p |- ####p" on 3 worlds), or lies on a chain of 4 worlds.  The
        # witness is the labelled scan's, on every class list the sweep
        # reads, cut or not.
        rng = random.Random(2001)
        cases = []
        for i in range(150):
            four = i % 5 == 4
            names = ["p"] if four else ["p", "q"][:rng.randint(1, 2)]
            depth = rng.randint(0, 3)
            premise, conclusion = (random_modal_formula(rng, names, rng.randint(1, 5), depth)
                                   for _ in range(2))
            cases.append((Sequent(premise, conclusion), 4 if four else 3))
        cases += [(parse_sequent(text), worlds) for text, worlds in [
            ("#[]p |- []#p", 3), ("##p |- ####p", 3), ("<>p & []#p |- <>#p", 3),
            ("p & []p & [][]p |- [][][]p", 4)]]
        deep_and_wide = off_root = 0
        for s, max_worlds in cases:
            found = find_countermodel(s, max_worlds)
            assert (found and (found.model, found.world)) == \
                _labelled_first_countermodel(s, max_worlds), render_sequent(s)
            if found:
                deep_and_wide += (len(found.model.frame.worlds) >= 2
                                  and bulkeval._compile(s).depth >= 2)
                off_root += found.world != "w0"
        assert deep_and_wide >= 5 and off_root >= 3, (deep_and_wide, off_root)

    def test_sweep_reads_the_rooted_classes_in_order(self, chunk_budget):
        # Under the tiny budget each relation's 4 096 valuations are read in
        # 64 blocks, the first starting at valuation 0.
        space = bulkeval.sweep(3, ["p", "q"], 1)
        masks = [m for rows, v, _ in space._blocks() if v == 0
                 for m in space.masks[rows].tolist()]
        assert masks == bulkeval._relation_list(3, 1).masks.tolist()

    def test_no_block_when_no_class_is_rooted(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("allocated for an empty sweep")
        monkeypatch.setattr(bulkeval, "_atom_tables", allocate)
        assert list(bulkeval.sweep(3, ["p", "q"], 0)._blocks()) == []
        # A propositional sequent is decided at one world.
        monkeypatch.undo()
        spaces = []
        blocks = BulkSpace._blocks

        def counting(space):
            for block in blocks(space):
                spaces.append((space.n, len(space.succ[block[0]])))
                yield block
        monkeypatch.setattr(BulkSpace, "_blocks", counting)
        assert find_countermodel(parse_sequent("p & q |- q | p"), 3) is None
        assert spaces == [(1, 1)]  # the one world without its loop

    def test_a_bad_depth_is_refused_and_keeps_nothing(self, cold_caches):
        # A negative depth keeps no class, so "#p |- p" would hold on such a
        # sweep, and each depth would keep a plan and a record of its own;
        # a depth that is not an integer is refused by its type's name.
        for depth in range(-1, -6, -1):
            with pytest.raises(ValueError, match="depth"):
                bulkeval.sweep(2, ["p"], depth)
        for depth in (1.5, "1"):
            with pytest.raises(TypeError, match=type(depth).__name__):
                bulkeval.sweep(2, ["p"], depth)
        assert bulkeval._plan.cache_info().currsize == 0
        assert bulkeval._relation_list.cache_info().currsize == 0
        assert bulkeval.sweep(2, ["p"], 1).first_countermodel(parse_sequent("#p |- p")) == \
            (0, 2, 1)

    def test_guard_refuses_before_allocating(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("allocated before the guard")
        monkeypatch.setattr(bulkeval, "_atom_tables", allocate)
        monkeypatch.setattr(bulkeval, "_relation_list", allocate)
        for depth in (0, 1):
            with pytest.raises(BoundExceededError):
                bulkeval.sweep(5, ["p"], depth)


class TestClauseTables:
    @pytest.mark.parametrize("block_relations", [None, 7])
    @pytest.mark.parametrize("n,depth", [(1, None), (2, 1), (3, None), (3, 1), (4, None), (4, 2)])
    def test_gather_matches_the_per_world_pass(self, n, depth, block_relations, chunk_budget,
                                               block_pairs):
        # Seeded random children of both shapes on sampled blocks of the
        # sweep, the first and the last among them; under the tiny budget
        # most blocks start mid-list or mid-relation, and under a budget of
        # 7 relations' valuations each block holds 7 relations (the last
        # one may hold fewer): the sweeps of 3 worlds at every class and of
        # 4 take several, all after the first starting mid-list.  Each
        # demand (truth, falsity, both) yields the per-world pass's rows it
        # names, and None for the other.
        if block_relations:
            block_pairs(block_relations * 4 ** n)
        rng = np.random.default_rng(n)
        space = bulkeval.sweep(n, ["p"], depth)
        blocks = list(space._blocks())
        if block_relations:
            assert (len(blocks) > 1) == ((n, depth) in [(3, None), (4, None), (4, 2)])
            assert [(rows.start, rows.stop, v) for rows, v, _ in blocks] == \
                [(r, r + block_relations, 0) for r in range(0, len(space.succ), block_relations)]
        picks = {0, len(blocks) - 1} | set(random.Random(n).sample(range(len(blocks)),
                                                                   min(6, len(blocks))))
        for i in sorted(picks):
            block = blocks[i]
            succ, vals = space.succ[block[0]], block[2].shape[-1]
            for rows in (1, len(succ)):
                pos, neg = rng.integers(0, 1 << n, (2, rows, vals), dtype=np.uint8)
                for tri in (True, False):
                    expect = bulkeval._clause_pass(tri, succ, pos, neg, 3)
                    for want in (1, 2, 3):
                        got = space._modal(block, tri, pos, neg, want)
                        for x, (g, e) in enumerate(zip(got, expect)):
                            if not want >> x & 1:
                                assert g is None
                                continue
                            assert g.shape == e.shape == (len(succ), vals)
                            assert np.array_equal(g, e), \
                                (n, depth, block[0].start, block[1], rows, tri, want)

    @pytest.mark.parametrize("n,depth", [(1, 0), (2, 1), (3, None), (4, None), (4, 3)])
    def test_tables_match_the_scalar_clauses(self, n, depth):
        # Every code, on every relation up to 3 worlds and on a seeded
        # sample at 4 (the first and the last among them).
        masks = bulkeval._relation_list(n, depth).masks
        table = bulkeval._relation_list(n, depth).table()
        assert table.shape == (2, 2, len(masks), 4 ** n)
        rows = range(len(masks))
        if n == 4:
            rows = [0, len(masks) - 1] + random.Random(n).sample(range(1, len(masks) - 1), 40)
        succ = bulkeval._successors(n, masks).tolist()
        for r in rows:
            for code in range(4 ** n):
                child = (code >> n, code & (1 << n) - 1)
                for m, clause in enumerate((tri_clause, box_clause)):
                    expect = clause(child, tuple(succ[r]))
                    assert (table[m, 0, r, code], table[m, 1, r, code]) == expect, (n, r, code, m)

    def test_cached_tables_and_their_rows_reject_writes(self, monkeypatch):
        gathered, gather = [], bulkeval._gather

        def recording(tables, code):
            gathered.append(tables)
            return gather(tables, code)
        monkeypatch.setattr(bulkeval, "_gather", recording)
        space = bulkeval.sweep(3, ["p"], 1)
        bulk_bits(space, Tri(Atom("p")))
        relations = bulkeval._relation_list(3, 1)
        [rows] = gathered
        for table in (relations.table(), rows):
            with pytest.raises(ValueError):
                table[0, 0, 0, 0] = 1
        for array in (relations.masks, relations.succ, space.masks, space.succ):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_no_table_without_a_modal_node(self, monkeypatch):
        def build(*args):
            raise AssertionError("built a clause table")
        monkeypatch.setattr(bulkeval, "_clause_table", build)
        assert find_countermodel(parse_sequent("p & q |- q & r"), 3) is not None
        assert find_countermodel(parse_sequent("p & q |- q | p"), 3) is None

    def test_a_given_frames_blocks_share_one_table(self, monkeypatch):
        # Under a budget of 33 pairs, whose largest power of 4 is 16, the
        # 3-world cycle's 64 valuations are read in four aligned blocks of
        # 16, and the valid claim visits them all.
        monkeypatch.setattr(bulkeval, "_BLOCK_PAIRS", 33)
        starts, tables = [], []
        blocks, build = BulkSpace._blocks, bulkeval._clause_table

        def counting(space):
            for block in blocks(space):
                starts.append((block[0].start, block[1]))
                yield block

        def building(succ):
            tables.append(len(succ))
            return build(succ)
        monkeypatch.setattr(BulkSpace, "_blocks", counting)
        monkeypatch.setattr(bulkeval, "_clause_table", building)
        cycle = Frame(["w0", "w1", "w2"], [("w0", "w1"), ("w1", "w2"), ("w2", "w0")])
        assert sequent_valid_on_frame(cycle, parse_sequent("#p |- #~p"))
        assert starts == [(0, 16 * i) for i in range(4)]
        assert tables == [1]

    def test_one_cache_entry_per_relation_list(self, cold_caches):
        # Every depth from n on sweeps the same classes, so these 29
        # searches read six relation lists: (1, 1), (2, 1), (2, 2), (3, 1),
        # (3, 2), (3, 3), each with its clause table, filtered from the
        # three lists of every class, which build no table.  A kept plan
        # keeps its record, so the plans start empty too.
        for d in range(1, 30):
            tower = "#" * d + "p"
            assert find_countermodel(parse_sequent(f"{tower} |- {tower}"), 3) is None
        assert bulkeval._relation_list.cache_info().currsize == 9
        for n, depth, read in [(1, 1, True), (2, 1, True), (2, 2, True), (3, 1, True),
                               (3, 2, True), (3, 3, True),
                               (1, None, False), (2, None, False), (3, None, False)]:
            assert (bulkeval._relation_list(n, depth)._table is not None) == read, (n, depth)
        assert bulkeval._relation_list.cache_info().currsize == 9

    def test_peak_memory_of_a_three_world_search(self, cold_caches):
        # A program yields only what is read and drops each value after its
        # last reader, and no value outgrows a block of 2^20 (relation,
        # valuation) pairs: 6.6 MB.
        for peak in _search_peaks("#(p & q) & r |- #(q & p) & r"):
            assert peak < 20e6, peak

    def test_peak_memory_of_a_nested_three_world_search(self, cold_caches):
        # Each block gathers every relation's own row of the clause table at
        # the outer #, with 8-byte indices for each of its pairs: 19.5 MB.
        for peak in _search_peaks("#(#p & #q) & r |- #(#q & #p) & r"):
            assert peak < 40e6, peak

    def test_a_modal_node_gathers_only_its_demanded_rows(self, monkeypatch):
        # The valid search reads its # for the premise's truth alone: the
        # truth row of the clause table, in each of its two blocks (1 and
        # 2 worlds).  The premise of @p |- ##p, ~#p, reads the falsity row
        # of #p alone; in the whole sequent #p is also the child of #, so it
        # reads both rows there, and the outer # its truth row.
        reads, blocks = [], []
        gather, read = bulkeval._gather, BulkSpace._blocks

        def counting(tables, code):
            reads.append(tables)
            return gather(tables, code)

        def recording(space):
            for block in read(space):
                blocks.append(space)
                yield block
        monkeypatch.setattr(bulkeval, "_gather", counting)
        monkeypatch.setattr(BulkSpace, "_blocks", recording)
        assert find_countermodel(parse_sequent("#(r & ~q) & (s | p) |- s | p"), 2) is None
        assert [space.n for space in blocks] == [1, 2]
        assert [len(rows) for rows in reads] == [1, 1]
        for space, rows in zip(blocks, reads):
            assert np.shares_memory(rows, space._relations.table()[0, 0])
        s = parse_sequent("@p |- ##p")
        space = BulkSpace(2, ["p"])
        table = space._relations.table()
        reads.clear()
        space.valid_per_relation(s.premise)
        [rows] = reads
        assert len(rows) == 1
        assert np.shares_memory(rows, table[0, 1]) and not np.shares_memory(rows, table[0, 0])
        reads.clear()
        space.valid_per_relation(s)
        assert [len(rows) for rows in reads] == [2, 1]


def _search_peaks(text: str, max_worlds: int = 3) -> list[int]:
    """The tracemalloc peaks of the valid search for ``text`` up to
    ``max_worlds`` worlds, cold, then warm (``_peaks``)."""
    s = parse_sequent(text)
    return _peaks(lambda: find_countermodel(s, max_worlds) is None)


def _peaks(check) -> list[int]:
    """The tracemalloc peaks of ``check()``, which must hold, with the cold
    caches of the caller's ``cold_caches``, then warm.  numpy reports its
    allocations to tracemalloc, and each run starts from a collected heap,
    so these peaks are deterministic."""
    peaks = []
    for _ in range(2):
        gc.collect()
        tracemalloc.start()
        try:
            assert check()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def _demand_claims() -> list:
    """Three fixed sequents, and seeded sequents and formulas of both
    modalities over one and two variables, most with ``~`` over a ``#`` or
    a ``[]``, which turns the demand for its truth into one for its
    child's falsity."""
    rng = random.Random(29)

    def formula(names, depth):
        kind = rng.choice(["atom", "and", "or", "not", "modal", "negated", "negated"])
        if not depth or kind == "atom":
            return Atom(rng.choice(names))
        if kind in ("and", "or"):
            return (And if kind == "and" else Or)(formula(names, depth - 1),
                                                  formula(names, depth - 1))
        child = formula(names, depth - 1)
        if kind == "not":
            return Not(child)
        modal = rng.choice([Tri, Box])(child)
        return Not(modal) if kind == "negated" else modal
    claims = [parse_sequent(text) for text in (
        "~#(p & ~[]q) |- ~#p | []~q", "@p |- ##p", "~[]p & ~#q |- ~#(p | q)")]
    for names in (["p"], ["p", "q"]):
        claims += [Sequent(formula(names, 4), formula(names, 4)) for _ in range(3)]
        claims += [formula(names, 4) for _ in range(2)]
    return claims


def _full_demand_answers(space, claim):
    """``first_countermodel`` and ``valid_per_relation`` of ``claim`` on
    ``space``, from both supports of each side (``bulk_supports``)."""
    if isinstance(claim, Sequent):
        bad = bulk_supports(space, claim.premise)[0] & ~bulk_supports(space, claim.conclusion)[0]
    else:
        bad = ~bulk_supports(space, claim)[0]
    cells = bad.any(axis=2)
    hit = None
    if cells.any():
        r, v = np.unravel_index(cells.argmax(), cells.shape)
        hit = int(r), int(v), int(bad[r, v].argmax())
    return hit, np.broadcast_to(~cells.any(axis=1), (len(space.succ),))


class TestDemand:
    @pytest.mark.parametrize("worlds", [1, 2, 3, 5, 6])
    def test_programs_match_full_supports(self, worlds, chunk_budget):
        # Every sweep up to 3 worlds (the clause tables), at every depth,
        # and a seeded 5- or 6-world frame (the per-world pass).  A sweep of
        # more than 300 blocks or 2e6 (relation, valuation, world) cells is
        # left out: the two-variable claims on the given frames, and beyond
        # 2 worlds under the tiny budget.
        rng = random.Random(worlds)
        names = [f"w{i}" for i in range(worlds)]
        frame = Frame(names, [(a, b) for a in names for b in names if rng.random() < 0.3])
        runs = 0
        for claim in _demand_claims():
            program = bulkeval._compile(claim)
            k = len(program.names)
            if worlds > 3:
                sweeps, relations = [(frame,)], 1
            else:
                sweeps = [(worlds, None)] + [(worlds, d) for d in range(worlds)]
                relations = len(bulkeval._relation_list(worlds, None).masks)
            pairs = relations * 4 ** (worlds * k)
            if pairs * worlds > 2e6 or pairs > 300 * bulkeval._BLOCK_PAIRS:
                continue
            for args in sweeps:
                space = bulkeval.sweep(*args[:1], program.names, *args[1:])
                hit, valid = _full_demand_answers(space, claim)
                assert space.first_countermodel(program) == hit, (render(claim), args)
                assert np.array_equal(space.valid_per_relation(program), valid)
                runs += 1
        assert runs


class TestAtomTables:
    def test_searches_of_one_shape_share_read_only_tables(self, monkeypatch, cold_caches):
        # Both sequents are valid and have two variables, so each search
        # reads one block at 1 world and one at 2, and the second search
        # reads the first one's tables under its own names.  The caches
        # start empty, so the first search builds them.
        spaces = []
        blocks = BulkSpace._blocks

        def recording(space):
            for block in blocks(space):
                spaces.append(space)
                yield block
        monkeypatch.setattr(BulkSpace, "_blocks", recording)
        for text in ("#p & q |- q", "#r & s |- s"):
            assert find_countermodel(parse_sequent(text), 2) is None
        assert [space.n for space in spaces] == [1, 2, 1, 2]
        monkeypatch.undo()
        for first, second in zip(spaces[:2], spaces[2:]):
            for a, b in ((Atom("p"), Atom("r")), (Atom("q"), Atom("s"))):
                for x, y in zip(bulk_bits(first, a), bulk_bits(second, b)):
                    assert np.shares_memory(x, y)
                    with pytest.raises(ValueError):
                        y[0, 0] = 0
            assert np.shares_memory(first.succ, second.succ)
            with pytest.raises(ValueError):
                second.succ[0, 0] = 0

    def test_one_entry_per_shape_within_the_budget(self, cold_caches):
        # Shapes (1, 1), (2, 1), (1, 2) and (2, 2), each under several names,
        # depths and a given frame; at depth 0 no 3-world block is read.
        # Then 9 and 11 slots, each swept twice: each is cached once, the
        # first whole, the second its 10 low slots, so no table holds more
        # than _BLOCK_PAIRS valuations.  A kept plan keeps its block's
        # table, so the plans start empty too.
        for names in (["p"], ["q"], ["p", "q"], ["r", "s"]):
            for worlds, depth in ((1, None), (2, None), (2, 1), (frame_from_mask(2, 5), None),
                                  (3, 0)):
                list(bulkeval.sweep(worlds, names, depth)._blocks())
        assert bulkeval._atom_tables.cache_info().currsize == 4
        for _ in range(2):
            for k in (9, 11):
                assert next(bulkeval.sweep(1, [f"p{j}" for j in range(k)])._blocks()) is not None
        shapes = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 9), (1, 11)]
        assert bulkeval._atom_tables.cache_info().currsize == len(shapes)
        for n, k in shapes:
            table = bulkeval._atom_tables(n, k, min(n * k, 10))
            assert table.shape == (k, 2, 1, min(4 ** (n * k), bulkeval._BLOCK_PAIRS))
        assert bulkeval._atom_tables.cache_info().currsize == len(shapes)

    @pytest.mark.parametrize("chunk_budget,worlds,k,blocks", [
        ("default", 11, 1, 4), ("tiny", 2, 2, 10 * 4), ("tiny", 3, 2, 104 * 64)],
        indirect=["chunk_budget"])
    def test_split_blocks_read_the_full_tables(self, chunk_budget, worlds, k, blocks):
        # Past the low slots each block fixes the high digits: 4 aligned
        # blocks of 4^10 valuations of an 11-world frame at the default
        # budget, and 4 and 64 blocks of 64 valuations per relation of 2
        # and 3 worlds x 2 variables under the tiny one.  Each block's atoms
        # are its slice of the full tables.
        names = [f"p{j}" for j in range(k)]
        full = bulkeval._build_atoms(worlds, k)
        width = 4 ** 10 if chunk_budget == "default" else 64
        if worlds > 4:
            ws = [f"w{i}" for i in range(worlds)]
            worlds = Frame(ws, [(ws[i], ws[(i + 1) % len(ws)]) for i in range(len(ws))])
        spaces = 0
        for rows, v, atoms in bulkeval.sweep(worlds, names)._blocks():
            assert v % width == 0 and atoms.shape == full.shape[:-1] + (width,)
            assert np.array_equal(atoms, full[..., v:v + width]), (rows.start, v)
            spaces += 1
        assert spaces == blocks

    def test_peak_memory_of_a_two_world_six_variable_search(self, cold_caches):
        # No atom table outgrows a block: the cached table of the 10 low
        # slots and one block's own take 12 MiB each, not the 192 MiB of
        # every valuation's atoms.  Measured: 39.1 MiB cold, 27.0 MiB warm.
        # As a CLI process the search peaks under 150 MB of RSS (about 75 MB);
        # a fresh wrapper reads RUSAGE_CHILDREN, so no earlier child counts,
        # and passes on the search's verdict, so a crash cannot pass.
        sequent = "#(p & q) & (r | s) & (t | u) |- #(q & p) & (r | s) & (t | u)"
        cold, warm = _search_peaks(sequent, 2)
        assert cold < 60 * 2 ** 20 and warm < 40 * 2 ** 20, (cold, warm)
        wrapper = ("import resource, subprocess, sys; run = subprocess.run(sys.argv[1:], stdout="
                   "subprocess.PIPE, text=True); print(run.returncode, resource.getrusage("
                   "resource.RUSAGE_CHILDREN).ru_maxrss, run.stdout, end='')")
        proc = subprocess.run([sys.executable, "-c", wrapper, sys.executable, "-m", "fdek",
                               "countermodel", sequent, "--max-worlds", "2", "--json"],
                              capture_output=True, text=True, timeout=120)
        code, rss_kib, out = proc.stdout.split(" ", 2)
        assert (code, out, proc.stderr) == ("1", '{"found": false, "max_worlds": 2}\n', "")
        assert int(rss_kib) < 150 * 1024, rss_kib

    def test_peak_memory_of_a_labelled_two_world_six_variable_space(self, cold_caches):
        # A labelled space is read in the blocks of a sweep of its shape:
        # the cached table of the 10 low slots and one block's own atoms,
        # where every valuation's atoms in one block would take 416 MiB.
        # Measured: 39.0 MiB cold.
        s = parse_sequent("#(p & q & r) & (s | t | u) |- s | t | u")
        cold, _ = _peaks(lambda: BulkSpace(2, list("pqrstu"), [0]).first_countermodel(s) is None)
        assert cold < 64 * 2 ** 20, cold

    def test_peak_memory_of_a_twelve_cycle_check(self, cold_caches):
        # The 12-world cycle's 16-bit bitsets, read in 16 blocks of 4^10
        # valuations by the per-world pass.  Measured: 28.0 MiB cold,
        # 24.0 MiB warm.
        ws = [f"w{i}" for i in range(12)]
        cycle = Frame(ws, [(ws[i], ws[(i + 1) % 12]) for i in range(12)])
        s = parse_sequent("##p |- ##~p")
        cold, warm = _peaks(lambda: sequent_valid_on_frame(cycle, s))
        assert cold < 45 * 2 ** 20 and warm < 40 * 2 ** 20, (cold, warm)

    def test_relation_lists_are_decoded_once(self, monkeypatch):
        claims = PAPER_FRAME_CLASSES["reflexive"]
        s = parse_sequent("#p |- #~p")
        assert check_definability("reflexive", claims, 3).verdict == "defines"
        assert find_countermodel(s, 3) is None

        def decode(*args):
            raise AssertionError("decoded a relation list again")
        monkeypatch.setattr(bulkeval, "_successors", decode)
        monkeypatch.setattr(analysis, "_successors", decode, raising=False)
        assert check_definability("reflexive", claims, 3).verdict == "defines"
        assert find_countermodel(s, 3) is None

    def test_a_labelled_space_reads_the_shared_tables(self):
        # A labelled space is read in the blocks of a sweep of its shape,
        # whose atoms are views of the one read-only table per shape.
        cached = bulkeval._atom_tables(2, 2, 4)
        space = BulkSpace(2, ["p", "q"], [0, 5])
        for j, atom in enumerate((Atom("p"), Atom("q"))):
            for x, bits in enumerate(bulk_bits(space, atom)):
                assert not bits.flags.writeable and np.shares_memory(bits, cached)
                assert np.array_equal(bits, cached[j, x])

    def test_cold_and_warm_caches_find_the_same_witnesses(self, monkeypatch, cold_caches):
        # The golden corpus at 3 worlds and the benchmark's oracle searches
        # of seeds 1 to 3, first with every cache empty, then again.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        gen = importlib.import_module("gen")
        oracle = [x for seed in (1, 2, 3) for x in gen.oracle_inputs(seed)["searches"]]
        searches = [(s, 3) for s in corpus()]
        searches += [(parse_sequent(x["text"]), x["max_worlds"]) for x in oracle]

        def witnesses():
            return [found and (model_to_dict(found.model), found.world)
                    for found in (find_countermodel(s, worlds) for s, worlds in searches)]
        cold = witnesses()
        assert witnesses() == cold
        assert [found is None for found in cold[-len(oracle):]] == [x["expect"] for x in oracle]


class TestPlans:
    def test_one_plan_per_shape_across_names(self, cold_caches):
        # Shapes (2, 1) and (2, 2) at every class, depth 1 and depth 2,
        # which depth 5 clamps to: six plans for 16 sweeps under four
        # name lists.  A given frame or a labelled space has its own plan,
        # which is not kept.
        spaces = {}
        for names in (["p"], ["q"], ["p", "q"], ["r", "s"]):
            for depth in (None, 1, 2, 5):
                space = bulkeval.sweep(2, names, depth)
                shape = (len(names), None if depth is None else min(depth, 2))
                assert spaces.setdefault(shape, space)._plan is space._plan, (names, depth)
                assert space.names == tuple(names)
        assert bulkeval._plan.cache_info().currsize == len(spaces) == 6
        frame = frame_from_mask(2, 5)
        given = [bulkeval.sweep(frame, names)._plan for names in (["p"], ["p"])]
        labelled = [BulkSpace(2, ["p"], [0, 5])._plan for _ in range(2)]
        assert given[0] is not given[1] and labelled[0] is not labelled[1]
        assert bulkeval._plan.cache_info().currsize == 6

    def test_a_kept_plan_follows_the_budget(self, monkeypatch):
        # A plan takes the block budget when it is built, and a sweep's
        # plan is kept per budget: the 2-world, 1-variable sweep read under
        # the default budget is one block of its 10 classes x 16
        # valuations, and under a budget of 100 pairs, with no cache
        # cleared, blocks of at most 6 relations.  A labelled space made
        # under that budget keeps it after the budget is restored, and the
        # default sweep finds its first plan again.
        default = bulkeval.sweep(2, ["p"])
        assert [(rows, v, atoms.shape[-1]) for rows, v, atoms in default._blocks()] == \
            [(slice(0, bulkeval._BLOCK_PAIRS // 16), 0, 16)]
        monkeypatch.setattr(bulkeval, "_BLOCK_PAIRS", 100)
        spaces = [bulkeval.sweep(2, ["p"]), BulkSpace(2, ["p"])]
        monkeypatch.undo()
        for space, blocks in zip(spaces, (2, 3)):
            relations = range(len(space.succ))
            cells, sizes = [], []
            for rows, v, atoms in space._blocks():
                sizes.append(len(relations[rows]) * atoms.shape[-1])
                cells += [(r, v + u) for r in relations[rows] for u in range(atoms.shape[-1])]
            assert cells == [(r, v) for r in relations for v in range(16)]
            assert max(sizes) <= 100 and len(sizes) == blocks
        assert spaces[0]._plan is not default._plan
        assert bulkeval.sweep(2, ["p"])._plan is default._plan

    def test_a_refusal_touches_no_cache(self):
        # 5 worlds x 2 variables fit the slot rule but not the cell budget.
        caches = [f for f in vars(bulkeval).values() if hasattr(f, "cache_info")]
        assert {bulkeval._plan, bulkeval._relation_list, bulkeval._atom_tables} <= set(caches)
        before = [f.cache_info() for f in caches]
        with pytest.raises(BoundExceededError):
            find_countermodel(parse_sequent("p & q |- q"), 5)
        assert [f.cache_info() for f in caches] == before

    @pytest.mark.parametrize("text", ["#p |- ##p", "@p |- #p", "p | q |- p"])
    def test_a_witness_frame_is_the_plans(self, text):
        # The witness's frame is the one the plan's record keeps for its
        # relation, the decoded frame of that relation's mask; a second
        # search returns the same object.
        s = parse_sequent(text)
        found = find_countermodel(s, 3)
        n = len(found.model.frame.worlds)
        program = bulkeval._compile(s)
        space = bulkeval.sweep(n, program.names, program.depth)
        r = space.first_countermodel(program)[0]
        frame = space._plan.record.frame(r)
        assert found.model.frame is frame is space.frame(r)
        assert frame == frame_from_mask(n, int(space.masks[r]))
        assert find_countermodel(s, 3).model.frame is frame

    def test_repeated_searches_retain_no_array(self, cold_caches):
        # One valid and one refuted search of one shape, alternately: the
        # first ten build the plans and the witness's frame, and the next
        # 490 keep nothing more.  Garbage is collected before each reading,
        # so only what the caches keep counts.
        searches = [parse_sequent(text) for text in ("#p & q |- q", "#r & s |- r")]

        def run(times):
            for i in range(times):
                find_countermodel(searches[i % 2], 2)
        tracemalloc.start()
        try:
            run(10)
            gc.collect()
            after_ten = tracemalloc.get_traced_memory()[0]
            run(490)
            gc.collect()
            after_500 = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert abs(after_500 - after_ten) < 4096, (after_ten, after_500)


class TestDefinability:
    def test_frame_classes_define_at_small_size(self):
        for prop, claims in PAPER_FRAME_CLASSES.items():
            report = check_definability(prop, claims, 2)
            assert report.verdict == "defines", prop
            assert report.frames_checked == 18

    def test_renaming_variables_keeps_the_report(self):
        # Validity on each frame is invariant, so the first frame where the
        # sides differ is too.
        for same in zip(*(hand_sequents(mapping) for mapping in ({}, *RENAMINGS))):
            for prop in sorted(FRAME_PROPERTIES):
                reports = {(r.verdict, json.dumps(r.witness), r.frames_checked)
                           for r in (check_definability(prop, [s], 3) for s, _ in same)}
                assert len(reports) == 1, (str(same[0][0]), prop)

    def test_scalar_engine_agrees_with_bulk(self, chunk_budget):
        props = list(PAPER_FRAME_CLASSES) + ["transitive", "euclidean", "serial"]
        for prop in props:
            claims = PAPER_FRAME_CLASSES.get(
                prop, [parse_sequent("#p |- ##p")])
            bulk = check_definability(prop, claims, 2)
            verdict, witness, frames_checked = scalar_definability(prop, claims, 2)
            assert bulk.verdict == verdict, prop
            assert bulk.witness == witness, prop
            assert bulk.frames_checked == frames_checked, prop

    def test_frame_classes_define_at_four_worlds(self):
        for prop, claims in PAPER_FRAME_CLASSES.items():
            report = check_definability(prop, claims, 4)
            assert report.verdict == "defines", prop
            assert report.frames_checked == 2 + 16 + 512 + 65536, prop

    def test_matches_the_scalar_reference_at_three_worlds(self):
        # Crossing properties with the wrong claim sets refutes on masks that
        # are not the smallest of the enumeration, some on 3 worlds.
        for prop in FRAME_PROPERTIES:
            for claims in PAPER_FRAME_CLASSES.values():
                bulk = check_definability(prop, claims, 3)
                verdict, witness, frames_checked = scalar_definability(prop, claims, 3)
                assert (bulk.verdict, bulk.witness, bulk.frames_checked) == \
                    (verdict, witness, frames_checked), (prop, bulk.claims)

    def test_transitivity_not_defined_by_iterated_modality(self):
        report = check_definability("transitive", [parse_sequent("#p |- ##p")], 3)
        assert report.verdict == "refuted"
        assert report.witness["direction"] == "property_holds_but_claims_fail"

    def test_euclideanness_not_defined(self):
        report = check_definability("euclidean", [parse_sequent("@p |- ##p")], 2)
        assert report.verdict == "refuted"
        assert report.witness["frame"] == frame_to_dict(load_frame("fig11"))
        assert report.witness["direction"] == "claims_hold_but_property_fails"

    def test_report_serializes(self):
        report = check_definability("reflexive", PAPER_FRAME_CLASSES["reflexive"], 2)
        data = report.to_dict()
        assert data["verdict"] == "defines"
        assert data["claims"] == ["#(p | ~p) |- p | ~p"]

    def test_world_guard_refuses_before_sweeping(self):
        with pytest.raises(BoundExceededError):
            check_definability("reflexive", PAPER_FRAME_CLASSES["reflexive"], 6)

    def test_requires_claims(self):
        with pytest.raises(ValueError):
            check_definability("reflexive", [], 2)

    def test_unknown_property_refused_before_sweeping(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before looking the property up")

        monkeypatch.setattr(analysis, "sweep", no_sweep)
        with pytest.raises(ValueError, match="unknown frame property 'connected'"):
            check_definability("connected", PAPER_FRAME_CLASSES["reflexive"], 2)

    def test_matches_the_scalar_reference_on_random_claims(self):
        # Seeded claim sets of one or two claims over one or two variables,
        # of modal depth at most 2, a quarter of them formula claims.
        rng = random.Random(1)

        def claim(names):
            f = random_formula(rng, names, rng.randint(1, 3), 2)
            if rng.random() < 0.25:
                return f
            return Sequent(random_formula(rng, names, rng.randint(1, 3), 2), f)
        for _ in range(30):
            names = ["p", "q"][:rng.randint(1, 2)]
            claims = [claim(names) for _ in range(rng.randint(1, 2))]
            for prop in FRAME_PROPERTIES:
                bulk = check_definability(prop, claims, 3)
                assert (bulk.verdict, bulk.witness, bulk.frames_checked) == \
                    scalar_definability(prop, claims, 3), (prop, bulk.claims)

    def test_builds_a_frame_only_for_the_witness(self, monkeypatch, cold_caches):
        # A record keeps each witness's frame, so the records, and the
        # plans that hold them, start empty.
        built = []
        init = Frame.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Frame, "__init__", counting_init)
        report = check_definability("reflexive", PAPER_FRAME_CLASSES["reflexive"], 3)
        assert report.verdict == "defines" and built == []
        report = check_definability("transitive", [parse_sequent("#p |- ##p")], 3)
        assert report.verdict == "refuted" and len(built) == 1


class TestFramePropertyVectors:
    @pytest.mark.parametrize("n,classes", [(1, 2), (2, 10), (3, 104), (4, 3044)])
    @pytest.mark.parametrize("prop", sorted(FRAME_PROPERTIES))
    def test_vector_is_the_predicate_on_each_relation(self, n, classes, prop):
        relations = bulkeval._relation_list(n, None)
        predicate = FRAME_PROPERTIES[prop]
        has = relations.holds(predicate)
        assert has.dtype == bool and len(has) == classes
        assert has.tolist() == [predicate(s) for s in relations.succ.tolist()]
        assert not has.flags.writeable
        assert relations.holds(predicate) is has

    @pytest.mark.parametrize("prop", sorted(FRAME_PROPERTIES))
    def test_a_swapped_predicate_gets_its_own_vector(self, monkeypatch, prop):
        relations = bulkeval._relation_list(2, None)
        has = relations.holds(FRAME_PROPERTIES[prop])
        original = FRAME_PROPERTIES[prop]
        monkeypatch.setitem(FRAME_PROPERTIES, prop, lambda succ: not original(succ))
        swapped = relations.holds(FRAME_PROPERTIES[prop])
        assert swapped is not has and swapped.tolist() == (~has).tolist()
        assert relations.holds(original) is has

    def test_check_follows_a_swapped_predicate(self, monkeypatch):
        # The reflexive claims fail on the loopless world, where the negated
        # property holds.
        claims = PAPER_FRAME_CLASSES["reflexive"]
        assert check_definability("reflexive", claims, 2).verdict == "defines"
        original = FRAME_PROPERTIES["reflexive"]
        monkeypatch.setitem(FRAME_PROPERTIES, "reflexive", lambda succ: not original(succ))
        report = check_definability("reflexive", claims, 2)
        assert report.witness == {"frame": {"worlds": ["w0"], "rel": []},
                                  "direction": "property_holds_but_claims_fail"}
        assert report.frames_checked == 1

    @pytest.mark.parametrize("r", [0, 1, 57, 103])
    def test_a_flipped_entry_is_the_witness(self, monkeypatch, r):
        # The equivalence claims define equivalence on every frame up to 3
        # worlds, so flipping the property on relation r of 3 worlds makes
        # that relation the only disagreement.
        relations = bulkeval._relation_list(3, None)
        holds = bulkeval._RelationList.holds
        had = bool(holds(relations, FRAME_PROPERTIES["equivalence"])[r])

        def flipped(self, predicate):
            has = holds(self, predicate)
            if self is relations:
                has = has.copy()
                has[r] = not has[r]
            return has
        monkeypatch.setattr(bulkeval._RelationList, "holds", flipped)
        report = check_definability("equivalence", PAPER_FRAME_CLASSES["equivalence"], 3)
        mask = int(relations.masks[r])
        direction = ("claims_hold_but_property_fails" if had
                     else "property_holds_but_claims_fail")
        assert report.verdict == "refuted"
        assert report.witness == {"frame": frame_to_dict(frame_from_mask(3, mask)),
                                  "direction": direction}
        assert report.frames_checked == 2 + 16 + mask + 1


class TestClaimsParsing:
    def test_mixed_lines(self):
        claims = claims_from_text("#p |- ##p\n\n|- #p\n#q\n")
        assert claims[0] == parse_sequent("#p |- ##p")
        assert claims[1] == parse_formula("#p")
        assert claims[2] == parse_formula("#q")


def formula_by_formula_scan(a, b, language, max_size) -> dict:
    """The report of ``check_indistinguishability``, without ``elapsed``, by
    evaluating every enumerated formula on ``Evaluator.supports`` in turn:
    the reference for the fold over value vectors."""
    same = a.model == b.model and a.world == b.world
    names = sorted(a.model.variables | b.model.variables)
    ev_a = Evaluator(a.model)
    ev_b = Evaluator(b.model)
    checked = 0
    witness = None
    witness_values = None
    for f in enumerate_formulas(language, names, max_size):
        checked += 1
        if same:
            pos, neg = ev_a.supports(a.world, f)
            if pos and neg:
                witness = render(f)
                witness_values = {"a": FourValue.from_flags(pos, neg).name}
                break
        else:
            bpos, bneg = ev_b.supports(b.world, f)
            if bpos == bneg:
                continue  # not a classical value at b; no constraint
            apos, aneg = ev_a.supports(a.world, f)
            if (apos, aneg) != (bpos, bneg):
                witness = render(f)
                witness_values = {"a": FourValue.from_flags(apos, aneg).name,
                                  "b": FourValue.from_flags(bpos, bneg).name}
                break
    return {"mode": "glut" if same else "transfer",
            "model_a": model_to_dict(a.model), "world_a": a.world,
            "model_b": model_to_dict(b.model), "world_b": b.world,
            "language": language, "max_size": max_size,
            "formulas_checked": checked,
            "verdict": "separating formula" if witness else "no separating formula found",
            "witness": witness, "witness_values": witness_values}


def _random_point(rng, names, at_point=None) -> PointedModel:
    """A pointed model on 1-3 worlds with a random relation and valuation;
    ``at_point`` fixes the variables' values at the point."""
    worlds = [f"w{i}" for i in range(rng.randint(1, 3))]
    rel = [(u, v) for u in worlds for v in worlds if rng.random() < 0.4]
    values = {w: {v: rng.choice(list(FourValue)) for v in names} for w in worlds}
    world = rng.choice(worlds)
    values[world].update(at_point or {})
    return PointedModel(Model.from_values(Frame(worlds, rel), values, variables=names), world)


def _pointed(m: Model, ren: dict, extra: dict, rel, point: str,
             variables=frozenset()) -> PointedModel:
    """``m`` with its worlds renamed by ``ren`` (the others keep their
    names), beside the worlds of ``extra`` (world -> values), on the
    relation ``rel`` renamed the same way, pointed at ``point``."""
    values = {ren.get(w, w): {v: m.value(w, v) for v in m.variables} for w in m.frame.worlds}
    values.update(extra)
    rel = [(ren.get(s, s), ren.get(t, t)) for s, t in rel]
    return PointedModel(Model.from_values(Frame(sorted(values), rel), values,
                                          variables=m.variables | variables), point)


def _relabelled(point: PointedModel, rng) -> PointedModel:
    """An isomorphic copy, its worlds renamed in a seeded order."""
    names = [f"v{i}" for i in range(len(point.model.frame.worlds))]
    rng.shuffle(names)
    ren = dict(zip(point.model.frame.worlds, names))
    return _pointed(point.model, ren, {}, point.model.frame.relation, ren[point.world])


def _beside(point: PointedModel, other: Model) -> PointedModel:
    """The disjoint union of the model with a renamed copy of ``other``,
    pointed as before: the point generates the same submodel, where
    ``other``'s variables are N."""
    m = point.model
    copy = {w: f"x{w}" for w in other.frame.worlds}
    extra = {copy[w]: {v: other.value(w, v) for v in other.variables}
             for w in other.frame.worlds}
    rel = list(m.frame.relation) + [(copy[s], copy[t]) for s, t in other.frame.relation]
    return _pointed(m, {}, extra, rel, point.world, other.variables)


def _cloned(point: PointedModel, rng) -> PointedModel:
    """The model with one world cloned, the point's world half the time:
    the clone takes the world's values and successors, and each
    predecessor of the world may also reach the clone, so the clone is
    bisimilar to the world.  The point moves to the clone of its world."""
    m = point.model
    world = point.world if rng.random() < 0.5 else rng.choice(m.frame.worlds)
    clone = world + "c"
    rel = set(m.frame.relation)
    rel |= {(clone, t) for s, t in m.frame.relation if s == world}
    rel |= {(s, clone) for s, t in sorted(m.frame.relation)
            if t == world and rng.random() < 0.5}
    values = {clone: {v: m.value(world, v) for v in m.variables}}
    return _pointed(m, {}, values, rel, clone if world == point.world else point.world)


def _bisimilar_variants(point: PointedModel, rng, other: Model) -> list[PointedModel]:
    """Three pointed models bisimilar to ``point``, none equal to it."""
    return [_relabelled(point, rng), _beside(point, other), _cloned(point, rng)]


_SCAN_MODELS = ("fig1", "fig5_left", "fig5_right", "fig6_single", "fig6_pair", "fig7",
                "fig9_glut", "fig9_gap", "fig10")


def _bundled_scans() -> list[tuple[PointedModel, PointedModel, int]]:
    """The scans of the bundled differential at size 5: every pair of
    bundled pointed models, two over different variables, and each point
    against three bisimilar variants of it, either way round."""
    points = [PointedModel(load_model(name), w)
              for name in _SCAN_MODELS for w in load_model(name).frame.worlds]
    pairs = [(a, b) for a in points for b in points]
    # Models over different variables: the union's variables are scanned.
    fig1, fig4 = PointedModel(load_model("fig1"), "w0"), PointedModel(load_model("fig4"), "w1")
    pairs += [(fig1, fig4), (fig4, fig1)]
    rng = random.Random(37)
    for a in points:
        for b in _bisimilar_variants(a, rng, fig4.model):
            pairs += [(a, b), (b, a)]
    return [(a, b, 5) for a, b in pairs]


def _random_scans() -> Iterator[tuple[PointedModel, PointedModel, int]]:
    """The seeded scans of the random differential: 200 random pairs, one
    in three a point against itself, each followed by its first point
    against a bisimilar variant of it, either way round, the three kinds
    of variant in turn."""
    # Points whose variables agree (no glut, in glut mode) push the
    # witnesses past size 1, into sections whose first positions come
    # from those of binary sections.
    rng, variants = random.Random(18), random.Random(37)
    for i in range(200):
        names = ["p", "q"][:rng.randint(1, 2)]
        agree = rng.random() < 0.5
        if rng.random() < 1 / 3:
            a = b = _random_point(rng, names, {v: rng.choice("TFN") for v in names}
                                  if agree else None)
        else:
            a = _random_point(rng, names)
            b = _random_point(rng, names, {v: a.model.value(a.world, v) for v in names}
                              if agree else None)
        max_size = 6 if rng.random() < 0.75 else rng.randint(1, 5)
        yield a, b, max_size
        c = _bisimilar_variants(a, variants, _random_point(variants, ["q"]).model)[i % 3]
        yield a, c, max_size
        yield c, a, max_size


def _differential(scans, language: str) -> Iterator[tuple[PointedModel, PointedModel, dict, dict]]:
    """Each scan's pointed models, its report less ``elapsed``, and the
    report of the formula-by-formula scan."""
    for a, b, max_size in scans:
        report = check_indistinguishability(a, b, language, max_size).to_dict()
        del report["elapsed"]
        yield a, b, report, formula_by_formula_scan(a, b, language, max_size)


def _answers(monkeypatch) -> list[bool]:
    """The answers of every later ``_bisimilar`` call."""
    answers = []
    bisimilar = analysis._bisimilar
    monkeypatch.setattr(analysis, "_bisimilar",
                        lambda *args: answers.append(bisimilar(*args)) or answers[-1])
    return answers


class TestIndistinguishability:
    @pytest.mark.parametrize("language", ["tri", "box"])
    def test_matches_the_formula_by_formula_scan(self, monkeypatch, language):
        answers = _answers(monkeypatch)
        modes = set()
        for a, b, report, expected in _differential(_bundled_scans(), language):
            assert report == expected, (a, b)
            modes.add((report["mode"], report["witness"] is None))
        assert modes == {("glut", True), ("glut", False), ("transfer", True), ("transfer", False)}
        # Bisimilar pairs are answered by refinement, the others by the fold.
        assert answers.count(True) >= 6 * 16 and False in answers

    @pytest.mark.parametrize("language,max_size,match", [
        ("classical", 3, "unknown language"), ("tri", 0, "at least 1")])
    def test_bad_arguments_refused_before_scanning(self, monkeypatch, language, max_size, match):
        def no_work(*args):
            raise AssertionError("scanned before checking the arguments")

        # The fold reads the leaves off atom_clause and each larger size's
        # layout off _sections.
        monkeypatch.setattr(analysis, "atom_clause", no_work)
        monkeypatch.setattr(analysis, "_sections", no_work)
        point = PointedModel(load_model("fig1"), "w0")
        with pytest.raises(ValueError, match=match):
            check_indistinguishability(point, point, language, max_size)

    def test_a_size_bound_is_an_integer(self):
        # Read by the world count's reader, before a comparison or range
        # reads it, and named; a numpy integer is a size.
        point = PointedModel(load_model("fig1"), "w0")
        calls = [("max_size", lambda n: check_indistinguishability(point, point, "tri", n)),
                 ("max_size", lambda n: list(enumerate_formulas("tri", ["p"], n))),
                 ("expressivity_size", run_figures)]
        for name, call in calls:
            for bad in (2.5, "3"):
                with pytest.raises(TypeError, match=f"^{name} is an integer, not "
                                                    f"{type(bad).__name__}$"):
                    call(bad)
        report = check_indistinguishability(point, point, "tri", np.int64(3))
        assert type(report.max_size) is int and report.formulas_checked == \
            check_indistinguishability(point, point, "tri", 3).formulas_checked
        assert list(enumerate_formulas("tri", ["p"], np.int64(3))) == \
            list(enumerate_formulas("tri", ["p"], 3))

    @pytest.mark.parametrize("language", ["tri", "box"])
    def test_matches_the_formula_by_formula_scan_on_random_models(self, monkeypatch, language):
        answers = _answers(monkeypatch)
        modes, sizes = set(), set()
        for a, b, report, expected in _differential(_random_scans(), language):
            assert report == expected, (a, b)
            modes.add((report["mode"], report["witness"] is None))
            sizes.add(report["witness"] and size(parse_formula(report["witness"])))
        assert modes == {("glut", True), ("glut", False), ("transfer", True), ("transfer", False)}
        assert {1, 2, 3, 4} <= sizes
        assert answers.count(True) >= 2 * 200 and False in answers

    def test_refinement_is_bounded_bisimilarity(self):
        # _bisimilar after k rounds against k-bisimilarity by its inductive
        # definition: the same values of the variables, and each successor
        # of either point matched by a (k - 1)-bisimilar successor of the
        # other.
        def bisimilar(a, b, k):
            names = sorted(a.model.variables | b.model.variables)

            @lru_cache(maxsize=None)
            def match(u, v, k):
                if any(a.model.value(u, n) != b.model.value(v, n) for n in names):
                    return False
                su, sv = a.model.successors(u), b.model.successors(v)
                return k == 0 or (all(any(match(s, t, k - 1) for t in sv) for s in su)
                                  and all(any(match(s, t, k - 1) for s in su) for t in sv))

            return match(a.world, b.world, k)

        answers = set()
        for a, b, _ in _random_scans():
            names = sorted(a.model.variables | b.model.variables)
            for k in range(6):
                answer = analysis._bisimilar(a, b, names, k)
                assert answer == bisimilar(a, b, k), (a, b, k)
                answers.add((k, answer))
        assert answers == {(k, answer) for k in range(6) for answer in (True, False)}

    @pytest.mark.parametrize("mutant", ["truth supports only", "no successor condition"])
    def test_the_differentials_refuse_a_weaker_refinement(self, monkeypatch, mutant):
        # A refinement that reads only the truth supports takes p = B at a
        # and p = T at b for bisimilar, though p separates them; one that
        # skips the successor condition takes fig6_pair's w0 and
        # fig6_single's, where p is T, for bisimilar, though []p separates
        # them.  Each must fail both differentials in both languages.
        bisimilar = analysis._bisimilar

        def blind(point):
            m = Model.__new__(Model)
            m._store(point.model.frame,
                     {v: [pos, 0] for v, (pos, _) in point.model.val.items()}, None)
            return PointedModel(m, point.world)

        weak = {"truth supports only": lambda a, b, names, rounds:
                bisimilar(blind(a), blind(b), names, rounds),
                "no successor condition": lambda a, b, names, rounds:
                bisimilar(a, b, names, 0)}[mutant]
        both, true = (PointedModel(Model.from_values(Frame(["w0"], []), {"w0": {"p": v}}), "w0")
                      for v in "BT")
        pair, single = (PointedModel(load_model(name), "w0")
                        for name in ("fig6_pair", "fig6_single"))
        a, b, language, witness = {"truth supports only": (both, true, "tri", "p"),
                                   "no successor condition": (pair, single, "box", "[]p")}[mutant]
        assert check_indistinguishability(a, b, language, 3).witness == witness
        monkeypatch.setattr(analysis, "_bisimilar", weak)
        assert check_indistinguishability(a, b, language, 3).witness is None
        for language in ("tri", "box"):
            for scans in (_bundled_scans(), _random_scans()):
                assert any(report != expected for _, _, report, expected
                           in _differential(scans, language)), language

    @pytest.mark.parametrize("language", ["tri", "box"])
    @pytest.mark.parametrize("names", [["p"], ["p", "q"]])
    def test_decodes_every_position(self, language, names):
        formulas = list(enumerate_formulas(language, names, 6))
        counts = [0] * 7
        for f in formulas:
            counts[size(f)] += 1
        assert analysis._counts(language, len(names), 6) == tuple(counts)
        leaves = [Atom(name) for name in names]
        k = 0
        for n in range(1, 7):
            for pos in range(counts[n]):
                got = analysis._formula_at(n, pos, leaves, *analysis._operators(language), counts)
                assert got == formulas[k], (n, pos)
                k += 1
        assert k == len(formulas)

    def test_folds_distinct_values_not_formulas(self, monkeypatch):
        # One and_clause call per pair of distinct operand values at each
        # size up to 5, which adds no value (17), then, in the check that
        # the 6 values seen are closed, two for each of the 13 pairs whose
        # sizes sum to 5 or more (26), against 301 for a fold up to size 9
        # and one per &-formula (5 897) in a per-formula fold.
        calls = []
        and_clause = analysis.and_clause
        monkeypatch.setattr(analysis, "and_clause",
                            lambda *args: calls.append(args) or and_clause(*args))
        a = PointedModel(load_model("fig6_single"), "w0")
        b = PointedModel(load_model("fig6_pair"), "w0")
        report = check_indistinguishability(a, b, "box", 9)
        assert report.formulas_checked == 23213
        assert len(calls) == 43

    def test_one_modal_clause_call_per_distinct_value(self, monkeypatch):
        # A scan's memo applies the modal clause once to each value it is
        # asked for, however many sizes meet that value.
        calls = []
        monkeypatch.setitem(analysis._MODALITIES, "box",
                            (Box, lambda v, succ: calls.append(v) or box_clause(v, succ)))
        a = PointedModel(load_model("fig6_single"), "w0")
        b = PointedModel(load_model("fig6_pair"), "w0")
        assert check_indistinguishability(a, b, "box", 9).formulas_checked == 23213
        assert calls and len(calls) == len(set(calls))

    def test_stops_folding_once_the_values_are_closed(self, monkeypatch):
        # Past the size at which the values close, no size calls a clause,
        # but formulas_checked still counts every formula up to the bound.
        calls = []

        def counted(clause):
            return lambda *args, **kwargs: calls.append(args) or clause(*args, **kwargs)

        for name in ("not_clause", "and_clause", "or_clause"):
            monkeypatch.setattr(analysis, name, counted(getattr(analysis, name)))
        monkeypatch.setitem(analysis._MODALITIES, "box", (Box, counted(box_clause)))
        a = PointedModel(load_model("fig6_single"), "w0")
        b = PointedModel(load_model("fig6_pair"), "w0")
        made = []
        for max_size, checked in ((9, 23213), (30, 906231675153199149)):
            calls.clear()
            report = check_indistinguishability(a, b, "box", max_size)
            assert report.verdict == "no separating formula found"
            assert report.formulas_checked == checked
            made.append(len(calls))
        assert made[0] == made[1] > 0

    @pytest.mark.parametrize("language,modality,clause",
                             [("tri", Tri, tri_clause), ("box", Box, box_clause)])
    def test_a_bisimilar_pair_is_answered_before_the_fold(self, monkeypatch, language, modality,
                                                          clause):
        # fig6_pair's w0 against a relabelled copy of it: refinement finds
        # them bisimilar, so the scan calls no clause, and still counts
        # every formula up to the bound.
        calls = []

        def counted(clause):
            return lambda *args, **kwargs: calls.append(args) or clause(*args, **kwargs)

        for name in ("not_clause", "and_clause", "or_clause"):
            monkeypatch.setattr(analysis, name, counted(getattr(analysis, name)))
        monkeypatch.setitem(analysis._MODALITIES, language, (modality, counted(clause)))
        a = PointedModel(load_model("fig6_pair"), "w0")
        report = check_indistinguishability(a, _relabelled(a, random.Random(1)), language, 9)
        assert report.mode == "transfer"
        assert report.verdict == "no separating formula found"
        assert report.formulas_checked == 23213
        assert calls == []

    @pytest.mark.parametrize("seed,language,glut,new_values", [
        (2244, "box", True, [1, 2, 1, 0, 2, 1]), (615, "tri", False, [1, 1, 0, 2])])
    def test_a_size_without_new_values_does_not_stop_the_scan(self, seed, language, glut,
                                                              new_values):
        # Seeded scans whose values stall at one size and grow again after
        # it, up to the witness: a scan that stopped at the first size
        # without new values would miss the witness.
        rng = random.Random(seed)
        a = _random_point(rng, ["p"])
        b = a if glut else _random_point(rng, ["p"])
        report = check_indistinguishability(a, b, language, 8).to_dict()
        del report["elapsed"]
        assert report == formula_by_formula_scan(a, b, language, 8)
        points = [a] if glut else [a, b]
        evaluators = [(Evaluator(x.model), x.model.frame.worlds) for x in points]
        seen, added = set(), [0] * len(new_values)
        for f in enumerate_formulas(language, ["p"], len(new_values)):
            value = tuple(ev.supports(w, f) for ev, worlds in evaluators for w in worlds)
            if value not in seen:
                seen.add(value)
                added[size(f) - 1] += 1
        assert added == new_values
        assert size(parse_formula(report["witness"])) == len(new_values)

    def test_builds_formulas_only_for_the_witness(self, monkeypatch):
        built = []
        set_hash = syntax._set_hash  # every node constructor stores its hash through it
        monkeypatch.setattr(syntax, "_set_hash",
                            lambda *args: built.append(args) or set_hash(*args))
        a = PointedModel(load_model("fig6_single"), "w0")
        b = PointedModel(load_model("fig6_pair"), "w0")
        assert check_indistinguishability(a, b, "box", 7).witness is None
        assert built == []
        assert check_indistinguishability(b, a, "box", 7).witness == "[]p"
        assert built

    def test_box_language_cannot_transfer_separate(self):
        a = PointedModel(load_model("fig6_single"), "w0")
        b = PointedModel(load_model("fig6_pair"), "w0")
        report = check_indistinguishability(a, b, "box", 5)
        assert report.mode == "transfer"
        assert report.verdict == "no separating formula found"
        assert report.witness is None

    def test_reversed_direction_finds_witness(self):
        # []p is T on the reflexive point but N on the pair, so the
        # transfer property fails in the opposite direction.
        a = PointedModel(load_model("fig6_pair"), "w0")
        b = PointedModel(load_model("fig6_single"), "w0")
        report = check_indistinguishability(a, b, "box", 2)
        assert report.verdict == "separating formula"
        assert report.witness == "[]p"
        assert report.witness_values == {"a": "N", "b": "T"}

    def test_glut_mode_on_box_witness_model(self):
        point = PointedModel(load_model("fig7"), "w0")
        report = check_indistinguishability(point, point, "tri", 5)
        assert report.mode == "glut"
        assert report.verdict == "no separating formula found"

    def test_glut_mode_finds_plain_glut(self):
        point = PointedModel(load_model("fig9_glut"), "w0")
        report = check_indistinguishability(point, point, "tri", 2)
        assert report.verdict == "separating formula"
        assert report.witness == "p"
        assert report.witness_values == {"a": "B"}

    def test_report_serializes(self):
        point = PointedModel(load_model("fig9_glut"), "w0")
        data = check_indistinguishability(point, point, "tri", 2).to_dict()
        assert data["mode"] == "glut"
        assert data["formulas_checked"] >= 1
