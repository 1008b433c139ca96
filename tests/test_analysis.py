import hashlib
import json
import random

import numpy as np
import pytest

from fdek import bulkeval
from fdek.analysis import (
    PAPER_FRAME_CLASSES, check_definability, check_indistinguishability,
    claims_from_text, count_models, enumerate_formulas, enumerate_frames,
    enumerate_models, find_countermodel, model_from_indices,
)
from fdek.bulkeval import BulkSpace
from fdek.figures import load_frame, load_model
from fdek.semantics import (
    BoundExceededError, Evaluator, FourValue, PointedModel, frame_to_dict,
    model_to_dict,
)
from fdek.syntax import Atom, Box, Not, Tri, parse_formula, parse_sequent, render, size
from fdek.tableau import Proved, prove

from conftest import corpus


@pytest.fixture(params=["default", "tiny"])
def chunk_budget(request, monkeypatch):
    """Sweeps with the default chunk budget, and with one so small that at
    two worlds every sweep splits: 3 relations per chunk for one variable
    (the last chunk short), 1 relation per chunk for two."""
    if request.param == "tiny":
        monkeypatch.setattr(bulkeval, "_CHUNK_CELLS", 100)


class TestModelEnumeration:
    @pytest.mark.parametrize("n,names,expected", [
        (1, ["p"], 8), (2, ["p"], 256), (1, ["p", "q"], 32)])
    def test_counts(self, n, names, expected):
        assert count_models(n, names) == expected
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

    def test_index_decode_matches_enumeration(self):
        everything = list(enumerate_models(2, ["p"]))
        n_val = 4 ** 2
        for rel_mask, val_index in ((0, 0), (3, 7), (15, 15), (9, 11)):
            decoded = model_from_indices(2, ["p"], rel_mask, val_index)
            assert decoded == everything[rel_mask * n_val + val_index]

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

    def test_unknown_language(self):
        with pytest.raises(ValueError):
            next(enumerate_formulas("classical", ["p"], 2))


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

    def test_found_pointed_model_actually_refutes(self):
        for text in ("#p |- ##p", "@p |- #p", "p | ~p |- #p"):
            s = parse_sequent(text)
            found = find_countermodel(s, 3)
            ev = Evaluator(found.model)
            assert ev.supports(found.world, s.premise)[0]
            assert not ev.supports(found.world, s.conclusion)[0]

    def test_agrees_with_naive_scan(self, chunk_budget):
        from fdek.syntax import variables
        # "#p |- ##p" is first refuted on relation mask 3, past the first chunk
        # when the budget is tiny.
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


class TestBulkAgreement:
    def test_bulk_supports_match_scalar_exhaustively(self):
        formulas = list(enumerate_formulas("tri", ["p"], 4))
        formulas += [Box(Atom("p")), Not(Box(Not(Atom("p"))))]
        for n in (1, 2):
            space = BulkSpace(n, ["p"])
            models = list(enumerate_models(n, ["p"]))
            n_val = 4 ** n
            for f in formulas:
                pos, neg = space.supports(f)
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
        bulk = {f: [np.broadcast_to(x, shape).tolist() for x in space.supports(f)]
                for f in formulas}
        for r, mask in enumerate(masks):
            for v in range(shape[1]):
                ev = Evaluator(model_from_indices(n, names, mask, v))
                for f, (pos, neg) in bulk.items():
                    for w in range(n):
                        got = (pos[r][v][w], neg[r][v][w])
                        assert got == ev.supports(f"w{w}", f), (render(f), mask, v, w)

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
                for bits in (*space._bits(f), space._refuting(f)):
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

    def test_holds_everywhere_matches_model_scan(self):
        s = parse_sequent("p & q |- p")
        assert BulkSpace(2, ["p", "q"]).sequent_holds_everywhere(s)
        s2 = parse_sequent("p |- q")
        assert not BulkSpace(1, ["p", "q"]).sequent_holds_everywhere(s2)


class TestDefinability:
    def test_frame_classes_define_at_small_size(self):
        for prop, claims in PAPER_FRAME_CLASSES.items():
            report = check_definability(prop, claims, 2)
            assert report.verdict == "defines", prop
            assert report.frames_checked == 18

    def test_scalar_engine_agrees_with_bulk(self, chunk_budget):
        props = list(PAPER_FRAME_CLASSES) + ["transitive", "euclidean", "serial"]
        for prop in props:
            claims = PAPER_FRAME_CLASSES.get(
                prop, [parse_sequent("#p |- ##p")])
            bulk = check_definability(prop, claims, 2, engine="bulk")
            scalar = check_definability(prop, claims, 2, engine="scalar")
            assert bulk.verdict == scalar.verdict, prop
            assert bulk.witness == scalar.witness, prop
            assert bulk.frames_checked == scalar.frames_checked, prop

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


class TestClaimsParsing:
    def test_mixed_lines(self):
        claims = claims_from_text("#p |- ##p\n\n|- #p\n#q\n")
        assert claims[0] == parse_sequent("#p |- ##p")
        assert claims[1] == parse_formula("#p")
        assert claims[2] == parse_formula("#q")


class TestIndistinguishability:
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
