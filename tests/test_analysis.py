import hashlib
import json
import random
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from fdek import analysis, bulkeval, syntax
from fdek.analysis import (
    PAPER_FRAME_CLASSES, check_definability, check_indistinguishability,
    claims_from_text, enumerate_formulas, find_countermodel, model_from_indices,
)
from fdek.bulkeval import BulkSpace, frame_from_mask, representatives
from fdek.figures import load_frame, load_model
from fdek.semantics import (
    FRAME_PROPERTIES, BoundExceededError, Evaluator, FourValue, Frame, Model, PointedModel,
    frame_to_dict, model_to_dict,
)
from fdek.syntax import Atom, Box, Not, Tri, parse_formula, parse_sequent, render, size, variables
from fdek.tableau import Proved, prove

from conftest import corpus, scalar_definability
from reference_impl import bulk_supports, enumerate_frames, enumerate_models


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

    @pytest.mark.parametrize("text,rel_mask,val_index", [
        ("~#(p & q) |- p & p", 2, 129), ("~#p |- q | p", 2, 164)])
    def test_witness_past_the_first_valuation_block(self, chunk_budget, text, rel_mask, val_index):
        # Under the tiny budget these witnesses lie in the third and fourth
        # blocks of 50 valuations of relation 2: the block's offset counts.
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

    def test_matches_the_labelled_search(self, chunk_budget):
        # The search sweeps, past one world, the isomorphism classes rooted
        # within the sequent's modal depth; the labelled BulkSpace sweeps
        # all 2^(n*n) masks.  The corpus's first witnesses lie on masks 0 to
        # 3, the first four classes, where a mask equals its position in the
        # unfiltered sweep; the added sequents are first refuted on masks 2,
        # 3, 5, 6 and 7 of 2 worlds and 12, 28 and 98 of 3, not always at w0,
        # with # or [] or both; the last six hold on every model, and for
        # the three of depth 0 no class past one world is swept.  Under the
        # tiny budget a two-variable space on 3 worlds is read in 125 blocks
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
        # w1, past the 1 280 classes rooted at depth 1; and a valid sequent
        # of depth 1, for which 1 280 of the 3 044 classes are swept.
        for text in ("p & []p & [][]p |- [][][]p", "#p |- #~p"):
            s = parse_sequent(text)
            found = find_countermodel(s, 4)
            assert (found and (found.model, found.world)) == \
                _labelled_first_countermodel(s, 4), text


@lru_cache(maxsize=None)
def _labelled_first_countermodel(s, max_worlds):
    """``(model, world)`` of the first countermodel over every labelled
    relation, smallest world count first, or None; the masks are read in
    ascending runs of 4 096, so 4 worlds fit in memory."""
    names = sorted(variables(s.premise, s.conclusion))
    for n in range(1, max_worlds + 1):
        for start in range(0, 2 ** (n * n), 4096):
            masks = range(start, min(start + 4096, 2 ** (n * n)))
            hit = BulkSpace(n, names, masks).first_countermodel(s)
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
        [space] = bulkeval.sweep(Frame(worlds, [(worlds[i], worlds[j]) for i, j in pairs]), ["p"])
        sample = [0, 4 ** n - 1] + random.Random(10).sample(range(1, 4 ** n - 1), 30)
        models = [Evaluator(model_from_indices(n, ["p"], mask, v)) for v in sample]
        for f in [Atom("p"), Tri(Atom("p")), Not(Tri(Not(Tri(Atom("p"))))), Box(Not(Atom("p")))]:
            for bits in space._bits(f):
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

    @pytest.mark.parametrize("worlds,k,blocks", [(3, 3, 2), (4, 1, 1), (2, 1, 1)])
    def test_relation_sweeps_split_by_relations(self, worlds, k, blocks):
        spaces = list(bulkeval.sweep(worlds, [f"p{i}" for i in range(k)]))
        assert len(spaces) == blocks
        n_val = 4 ** (worlds * k)
        assert all(len(space.succ) * n_val * worlds <= bulkeval._CHUNK_CELLS for space in spaces)
        starts = [space.start for space in spaces]
        ends = [(r + len(space.succ), 0) for space, (r, _) in zip(spaces, starts)]
        reps = representatives(worlds)
        assert starts == [(0, 0)] + ends[:-1] and ends[-1] == (len(reps), 0)
        assert np.concatenate([space.masks for space in spaces]).tolist() == reps.tolist()

    @pytest.mark.parametrize("n,blocks", [(12, 5), (11, 1)])
    def test_given_frames_split_by_valuations(self, n, blocks):
        worlds = [f"w{i}" for i in range(n)]
        spaces = list(bulkeval.sweep(Frame(worlds, [(w, w) for w in worlds]), ["p"]))
        assert len(spaces) == blocks
        widths = [space._bits(Atom("p"))[0].shape[1] for space in spaces]
        assert all(w * n <= bulkeval._CHUNK_CELLS for w in widths)
        starts = [space.start for space in spaces]
        ends = [(0, v + w) for (_, v), w in zip(starts, widths)]
        assert starts == [(0, 0)] + ends[:-1] and ends[-1] == (0, 4 ** n)

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
        assert len(representatives(n)) == classes

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_representative_per_orbit_and_the_smallest(self, n):
        reps = representatives(n).tolist()
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
    within ``depth`` steps, by breadth-first search from each world."""
    frame = frame_from_mask(n, mask)
    succ = {w: {t for s, t in frame.relation if s == w} for w in frame.worlds}
    for root in frame.worlds:
        seen = frontier = {root}
        for _ in range(depth):
            frontier = set().union(*(succ[w] for w in frontier)) - seen
            seen = seen | frontier
        if len(seen) == n:
            return True
    return False


class TestRootedSweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_breadth_first_search(self, n):
        reps = representatives(n).tolist()
        for depth in range(5):
            rooted = [m for m in reps if _bfs_rooted(n, m, depth)]
            assert bulkeval._rooted(n, depth).tolist() == rooted, (n, depth)

    @pytest.mark.parametrize("n,counts", [
        (2, [0, 7, 7, 7, 7]), (3, [0, 60, 80, 80, 80]), (4, [0, 1280, 2504, 2638, 2638])])
    def test_class_counts(self, n, counts):
        assert [len(bulkeval._rooted(n, depth)) for depth in range(5)] == counts
        assert len(bulkeval._rooted(n, 2000)) == counts[-1]

    def test_sweep_reads_the_rooted_classes_in_order(self, chunk_budget):
        # Under the tiny budget each relation is read in two blocks of
        # valuations, the first starting at valuation 0.
        masks = [m for space in bulkeval.sweep(3, ["p"], 1) if space.start[1] == 0
                 for m in space.masks.tolist()]
        assert masks == bulkeval._rooted(3, 1).tolist()

    def test_no_block_when_no_class_is_rooted(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("allocated for an empty sweep")
        monkeypatch.setattr(bulkeval, "_atom_tables", allocate)
        assert list(bulkeval.sweep(3, ["p", "q"], 0)) == []
        # A propositional sequent is decided at one world.
        monkeypatch.undo()
        spaces = []
        sweep = bulkeval.sweep

        def counting(*args):
            for space in sweep(*args):
                spaces.append((space.n, len(space.succ)))
                yield space
        monkeypatch.setattr(analysis, "sweep", counting)
        assert find_countermodel(parse_sequent("p & q |- q | p"), 3) is None
        assert spaces == [(1, 2)]

    def test_guard_refuses_before_allocating(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("allocated before the guard")
        monkeypatch.setattr(bulkeval, "_atom_tables", allocate)
        monkeypatch.setattr(bulkeval, "_rooted", allocate)
        for depth in (0, 1):
            with pytest.raises(BoundExceededError):
                next(bulkeval.sweep(5, ["p"], depth))


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

    def test_builds_a_frame_only_for_the_witness(self, monkeypatch):
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


_SCAN_MODELS = ("fig1", "fig5_left", "fig5_right", "fig6_single", "fig6_pair", "fig7",
                "fig9_glut", "fig9_gap", "fig10")


class TestIndistinguishability:
    @pytest.mark.parametrize("language", ["tri", "box"])
    def test_matches_the_formula_by_formula_scan(self, language):
        points = [PointedModel(load_model(name), w)
                  for name in _SCAN_MODELS for w in load_model(name).frame.worlds]
        pairs = [(a, b) for a in points for b in points]
        # Models over different variables: the union's variables are scanned.
        fig1, fig4 = PointedModel(load_model("fig1"), "w0"), PointedModel(load_model("fig4"), "w1")
        pairs += [(fig1, fig4), (fig4, fig1)]
        modes = set()
        for a, b in pairs:
            report = check_indistinguishability(a, b, language, 5).to_dict()
            del report["elapsed"]
            assert report == formula_by_formula_scan(a, b, language, 5), (a, b)
            modes.add((report["mode"], report["witness"] is None))
        assert modes == {("glut", True), ("glut", False), ("transfer", True), ("transfer", False)}

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

    @pytest.mark.parametrize("language", ["tri", "box"])
    def test_matches_the_formula_by_formula_scan_on_random_models(self, language):
        # Points whose variables agree (no glut, in glut mode) push the
        # witnesses past size 1, into sections whose first positions come
        # from those of binary sections.
        rng = random.Random(18)
        modes, sizes = set(), set()
        for _ in range(200):
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
            report = check_indistinguishability(a, b, language, max_size).to_dict()
            del report["elapsed"]
            assert report == formula_by_formula_scan(a, b, language, max_size), (a, b)
            modes.add((report["mode"], report["witness"] is None))
            sizes.add(report["witness"] and size(parse_formula(report["witness"])))
        assert modes == {("glut", True), ("glut", False), ("transfer", True), ("transfer", False)}
        assert {1, 2, 3, 4} <= sizes

    @pytest.mark.parametrize("language", ["tri", "box"])
    @pytest.mark.parametrize("names", [["p"], ["p", "q"]])
    def test_decodes_every_position(self, language, names):
        formulas = list(enumerate_formulas(language, names, 6))
        counts = [0] * 7
        for f in formulas:
            counts[size(f)] += 1
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
        # size, against one per &-formula (5 897) in a per-formula fold.
        calls = []
        and_clause = analysis.and_clause
        monkeypatch.setattr(analysis, "and_clause",
                            lambda *args: calls.append(args) or and_clause(*args))
        a = PointedModel(load_model("fig6_single"), "w0")
        b = PointedModel(load_model("fig6_pair"), "w0")
        report = check_indistinguishability(a, b, "box", 9)
        assert report.formulas_checked == 23213
        assert len(calls) == 301

    def test_builds_formulas_only_for_the_witness(self, monkeypatch):
        built = []
        init = syntax._init
        monkeypatch.setattr(syntax, "_init", lambda *args: built.append(args) or init(*args))
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
