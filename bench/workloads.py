"""The four workloads: one round of operations each, the checks on their
outputs, and the extra layer probes a traced round makes.

An operation is one verdict a user asks for.  ``run(i, tr)`` performs
operation ``i`` through fdek's public API and returns its output;
``fingerprint`` reduces an output to text that every later round must
repeat; ``check`` compares the first round's outputs with the reference
semantics and with properties the method must have.  ``check`` and
``probe`` take (operation, output) pairs of the operations that did not
fail.
"""

from __future__ import annotations

import json
import random
import tracemalloc

import numpy as np

import gen
import reference as ref
from spans import Tracer, call

from fdek import (Branch, Evaluator, Labelled, PointedModel, Proved, Val,
                  check_definability, check_indistinguishability, dual_model,
                  enumerate_formulas, extract_countermodel, find_countermodel,
                  model_from_dict, model_to_dict, parse_formula, parse_sequent, prove,
                  render, saturation_step)
from fdek.bulkeval import BulkSpace
from fdek.tableau import result_to_json

ROOTS = {"truth": (Val.T, Val.TBAR), "nonfalsity": (Val.FBAR, Val.F)}


def _claims(texts):
    return [parse_formula(t[2:]) if t.startswith("|-") else parse_sequent(t) for t in texts]


def _bulk_probe(tr: Tracer, s, tree_p, tree_c, worlds: int, peak: list, probe=False) -> None:
    """Build the whole space a search of ``s`` scans at ``worlds`` worlds and
    evaluate the sequent on it, under tracemalloc."""
    names = sorted(ref.variables(tree_p) | ref.variables(tree_c))
    masks = np.arange(2 ** (worlds * worlds), dtype=np.int64)
    cells = len(masks) * 4 ** (worlds * len(names)) * worlds
    ops = len({n for n in ref.postorder(tree_p) + ref.postorder(tree_c) if n[0] != "atom"})
    tracemalloc.start()
    try:
        space = call(tr, "bulkeval.build", {"cells": cells, "probe": probe},
                     BulkSpace, worlds, names, masks)
        call(tr, "bulkeval.supports", {"cell_ops": cells * ops, "probe": probe},
             space.first_countermodel, s)
        peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def _step_probe(tr: Tracer, s, start: str, probe=False) -> None:
    """Time saturation_step and Branch.copy along the leftmost path."""
    v_prem, v_conc = ROOTS[start]
    b = Branch.from_items((Labelled("w0", s.premise, v_prem),
                           Labelled("w0", s.conclusion, v_conc)))
    while not b.closed:
        items = len(b)
        call(tr, "tableau.copy", {"items": items, "probe": probe}, b.copy)
        try:
            kids = call(tr, "tableau.step", {"items": items, "probe": probe}, saturation_step, b)
        except ValueError:      # the branch is complete
            break
        b = kids[0]


# --- prove ---------------------------------------------------------------------

class ProveWorkload:
    """Each sequent proved from both root labellings and serialised as
    ``fdek prove --json`` serialises it."""

    name = "prove"

    def __init__(self, seed: int):
        self.seed = seed
        self.items = gen.prove_inputs(seed)["sequents"]
        for item in self.items:
            item["nodes"] = ref.size(item["premise"]) + ref.size(item["conclusion"])
        self.ops = [(item, start) for item in self.items for start in ("truth", "nonfalsity")]

    def warmup(self) -> None:
        result_to_json(prove(parse_sequent("#p |- #~p")))

    def run(self, i: int, tr: Tracer | None):
        item, start = self.ops[i]
        s = call(tr, "syntax.parse", {"nodes": item["nodes"]}, parse_sequent, item["text"])
        result = call(tr, "tableau.prove", {}, prove, s, start=start)
        if tr is not None:
            tr.last.attrs["rules"] = result.stats.rule_applications
        text = call(tr, "tableau.serialize", {}, result_to_json, result)
        return text, (s, result, start) if tr is not None else None

    @staticmethod
    def fingerprint(output) -> str:
        return output[0]

    @staticmethod
    def counts(pairs) -> dict:
        totals = {"rules": 0, "splits": 0, "worlds_created": 0}
        for _, (_, extra) in pairs:
            stats = extra[1].stats
            totals["rules"] += stats.rule_applications
            totals["splits"] += stats.splits
            totals["worlds_created"] += stats.worlds_created
        return totals

    def probe(self, tr, pairs, peak):
        for (item, start), (_, (s, result, _)) in pairs:
            for f, tree in ((s.premise, item["premise"]), (s.conclusion, item["conclusion"])):
                nodes = ref.size(tree)
                call(tr, "syntax.render", {"nodes": nodes}, render, f)
                call(tr, "syntax.hash", {"nodes": nodes}, hash, f)
            if not isinstance(result, Proved):
                call(tr, "tableau.extract", {}, extract_countermodel, result.branch)
            _step_probe(tr, s, start)

    def check(self, pairs) -> list[str]:
        errors = []
        verdicts = {}
        proved = []
        for (item, start), (text, _) in pairs:
            data = json.loads(text)
            verdict = data["verdict"] == "proved"
            verdicts.setdefault(item["text"], []).append(verdict)
            if item["expect"] is not None and verdict != item["expect"]:
                errors.append(f"{item['text']} ({start}): expected "
                              f"{'proved' if item['expect'] else 'refuted'}")
            if not verdict:
                model = ref.RefModel(data["model"])
                got = ref.evaluate(model, item["premise"]), ref.evaluate(model, item["conclusion"])
                w = data["designated"]
                if start == "truth":
                    ok = got[0][w][0] and not got[1][w][0]
                else:   # the contraposed root: premise not false, conclusion false
                    ok = not got[0][w][1] and got[1][w][1]
                if not ok:
                    errors.append(f"{item['text']} ({start}): countermodel does not refute")
            elif start == "truth":
                proved.append(item)
        for text, vs in verdicts.items():
            if len(set(vs)) != 1:
                errors.append(f"{text}: the two root labellings disagree")
        # Proved sequents have no countermodel with at most two worlds: all
        # one-variable ones and a seeded sample of the rest.
        rng = random.Random(self.seed)
        small = [it for it in proved if len(ref.variables(it["premise"]) |
                                            ref.variables(it["conclusion"])) == 1]
        rest = [it for it in proved if it not in small]
        for item in small + rng.sample(rest, min(4, len(rest))):
            if ref.find_countermodel(item["premise"], item["conclusion"], 2) is not None:
                errors.append(f"{item['text']}: proved, but the reference refutes it")
        return errors


# --- oracle ---------------------------------------------------------------------

class OracleWorkload:
    """Exhaustive countermodel searches and frame definability sweeps."""

    name = "oracle"

    def __init__(self, seed: int):
        inputs = gen.oracle_inputs(seed)
        self.ops = [("search", x) for x in inputs["searches"]] + \
                   [("sweep", x) for x in inputs["sweeps"]]
        random.Random(seed).shuffle(self.ops)
        for kind, x in self.ops:
            if kind == "search":
                x["nodes"] = ref.size(x["premise"]) + ref.size(x["conclusion"])
            else:
                x["nodes"] = sum(ref.size(gen.parse_text(side))
                                 for c in x["claims"] for side in c.split("|-") if side.strip())

    def warmup(self) -> None:
        find_countermodel(parse_sequent("#p |- #~p"), 2)
        check_definability("reflexive", _claims(["#(p | ~p) |- p | ~p"]), 2)

    def run(self, i, tr):
        kind, x = self.ops[i]
        if kind == "search":
            s = call(tr, "syntax.parse", {"nodes": x["nodes"]}, parse_sequent, x["text"])
            found = call(tr, "analysis.countermodel", {}, find_countermodel, s, x["max_worlds"])
            if tr is not None:
                tr.last.name = ("analysis.countermodel_valid" if found is None
                                else "analysis.countermodel_invalid")
            if found is None:
                return {"found": False}, s
            return {"found": True, "model": model_to_dict(found.model), "world": found.world}, s
        claims = call(tr, "syntax.parse", {"nodes": x["nodes"]}, _claims, x["claims"])
        report = call(tr, "analysis.definability", {}, check_definability,
                      x["property"], claims, x["max_size"])
        out = report.to_dict()
        del out["elapsed"]
        return out, None

    @staticmethod
    def fingerprint(output) -> str:
        return json.dumps(output[0], sort_keys=True)

    def probe(self, tr, pairs, peak):
        for (kind, x), (out, s) in pairs:
            if kind == "search":
                call(tr, "syntax.hash", {"nodes": x["nodes"]}, hash, s)
                if x["expect"]:
                    _bulk_probe(tr, s, x["premise"], x["conclusion"], x["max_worlds"], peak)

    def check(self, pairs) -> list[str]:
        errors = []
        for (kind, x), (out, s) in pairs:
            if kind == "search":
                proved = isinstance(prove(s), Proved)
                if out["found"]:
                    model = ref.RefModel(out["model"])
                    if not ref.refutes(model, out["world"], x["premise"], x["conclusion"]):
                        errors.append(f"{x['text']}: witness does not refute")
                    if proved:
                        errors.append(f"{x['text']}: witness found for a proved sequent")
                elif not proved:
                    errors.append(f"{x['text']}: none found, but the prover refutes")
                if out["found"] == x["expect"]:
                    errors.append(f"{x['text']}: expected {'none' if x['expect'] else 'a witness'}")
                continue
            if out["verdict"] != x["expect"]:
                errors.append(f"{x['property']}: verdict {out['verdict']}")
            elif x["expect"] == "defines":
                if out["frames_checked"] != 530:
                    errors.append(f"{x['property']}: {out['frames_checked']} frames, not 530")
            else:
                frame = out["witness"]["frame"]
                worlds, rel = frame["worlds"], frame["rel"]
                has_prop = {"transitive": ref.transitive,
                            "euclidean": ref.euclidean}[x["property"]](worlds, rel)
                valid = all(ref.sequent_valid_on_frame(worlds, rel, gen.parse_text(c.split("|-")[0]),
                                                       gen.parse_text(c.split("|-")[1]))
                            for c in x["claims"])
                direction = out["witness"]["direction"]
                if direction == "property_holds_but_claims_fail":
                    ok = has_prop and not valid
                else:
                    ok = valid and not has_prop
                if not ok:
                    errors.append(f"{x['property']}: witness frame {rel} is not a counterexample")
        return errors


# --- scans ----------------------------------------------------------------------

class ScansWorkload:
    """Bounded expressivity scans: the two paper scans and seeded pairs."""

    name = "scans"

    def __init__(self, seed: int):
        self.ops = gen.scans_inputs(seed)["scans"]
        for x in self.ops:
            names = set()
            for data in (x["a"], x["b"]):
                names |= {v for row in data.get("val", {}).values() for v in row}
            x["names"] = sorted(names)

    def warmup(self) -> None:
        m = model_from_dict(gen.load_data("fig1"))
        check_indistinguishability(PointedModel(m, "w0"), PointedModel(m, "w1"), "tri", 4)

    def run(self, i, tr):
        x = self.ops[i]
        a = model_from_dict(x["a"])
        b = model_from_dict(x["b"])
        report = call(tr, "analysis.scan", {}, check_indistinguishability,
                      PointedModel(a, x["wa"]), PointedModel(b, x["wb"]),
                      x["language"], x["max_size"])
        if tr is not None:
            tr.last.attrs["formulas"] = report.formulas_checked
        out = report.to_dict()
        del out["elapsed"]
        return out, a

    @staticmethod
    def fingerprint(output) -> str:
        return json.dumps(output[0], sort_keys=True)

    def probe(self, tr, pairs, peak):
        for x, (_, a) in pairs:
            formulas = call(tr, "analysis.enumerate", {}, lambda: list(
                enumerate_formulas(x["language"], x["names"], x["max_size"])))
            tr.last.attrs["formulas"] = len(formulas)
            ev = Evaluator(a)
            # The memo holds every smaller formula, so each formula adds one
            # node at the scanned world.
            call(tr, "semantics.eval", {"node_worlds": len(formulas)},
                 lambda: [ev.supports(x["wa"], f) for f in formulas])

    def check(self, pairs) -> list[str]:
        errors = []
        for x, (out, _) in pairs:
            total = ref.formulas_up_to(len(x["names"]), x["max_size"])
            label = f"{x['kind']} scan {x['language']}"
            if (out["witness"] is not None) != x["expect"]:
                errors.append(f"{label}: the reference {'finds' if x['expect'] else 'finds no'}"
                              f" separating formula, the scan gives {out['witness']}")
            if out["witness"] is None:
                if out["formulas_checked"] != total:
                    errors.append(f"{label}: {out['formulas_checked']} formulas, not {total}")
                continue
            f = gen.parse_text(out["witness"])
            va = ref.value(ref.RefModel(x["a"]), x["wa"], f)
            if out["mode"] == "glut":
                ok = va == "B"
            else:
                vb = ref.value(ref.RefModel(x["b"]), x["wb"], f)
                ok = vb in "TF" and va != vb
            if not ok or out["formulas_checked"] > total:
                errors.append(f"{label}: witness {out['witness']} does not separate")
        return errors


# --- deep ------------------------------------------------------------------------

class DeepWorkload:
    """Large formulas parsed, evaluated at one world and rendered, as
    ``fdek eval --json`` does."""

    name = "deep"

    def __init__(self, seed: int):
        inputs = gen.deep_inputs(seed)
        self.data = inputs["models"]
        self.models = {name: model_from_dict(d) for name, d in self.data.items()}
        self.ops = []
        for item in inputs["formulas"]:
            item["nodes"] = ref.size(item["tree"])
            for name, d in self.data.items():
                for w in d["worlds"][:1] if item["fails"] else d["worlds"]:
                    self.ops.append((item, name, w))
        # The 600- and 2000-deep formulas: RecursionError is the only
        # exception they may raise, and no other operation may raise one.
        self.expected_failures = frozenset(
            i for i, (item, _, _) in enumerate(self.ops) if item["fails"])

    def warmup(self) -> None:
        f = parse_formula("#~#(p & ~#r) | p")
        Evaluator(self.models["fig1"]).supports("w0", f)
        render(f)

    def run(self, i, tr):
        item, name, w = self.ops[i]
        nodes = item["nodes"]
        f = call(tr, "syntax.parse", {"nodes": nodes}, parse_formula, item["text"])
        pos, neg = call(tr, "semantics.eval", {"node_worlds": nodes},
                        Evaluator(self.models[name]).supports, w, f)
        text = call(tr, "syntax.render", {"nodes": nodes}, render, f)
        return (ref.LETTER[(pos, neg)], text), f

    @staticmethod
    def fingerprint(output) -> str:
        return output[0][0] + output[0][1]

    def probe(self, tr, pairs, peak):
        seen = set()
        for (item, _, _), (_, f) in pairs:
            if f is not None and id(item) not in seen:
                seen.add(id(item))
                call(tr, "syntax.hash", {"nodes": item["nodes"]}, hash, f)

    def check(self, pairs) -> list[str]:
        errors = []
        duals = {name: dual_model(m) for name, m in self.models.items()}
        for (item, name, w), ((letter, text), f) in pairs:
            label = f"depth {item['depth']} on {name}:{w}"
            if letter != ref.value(ref.RefModel(self.data[name]), w, item["tree"]):
                errors.append(f"{label}: value {letter} differs from the reference")
            if text != item["text"]:
                errors.append(f"{label}: render(parse(text)) is not the canonical text")
            dual = ref.LETTER[Evaluator(duals[name]).supports(w, f)]
            if dual != ref.DUAL[letter]:
                errors.append(f"{label}: dual model gives {dual} for {letter}")
        return errors


# --- a fixed probe of every layer ----------------------------------------------------

def fixed_probe(tr: Tracer, peak: list) -> dict:
    """The same small calls into every layer, made after each traced round
    so that each per-layer metric is measured on every workload; spans are
    marked ``probe`` and count only where the workload makes no such call.
    Returns the tableau counts of the probe."""
    p = {"probe": True}
    text = "#(p & ~q) | ##p"
    f = call(tr, "syntax.parse", {"nodes": 9, **p}, parse_formula, text)
    call(tr, "syntax.render", {"nodes": 9, **p}, render, f)
    call(tr, "syntax.hash", {"nodes": 9, **p}, hash, f)
    fig1 = model_from_dict(gen.load_data("fig1"))
    call(tr, "semantics.eval", {"node_worlds": 18, **p},
         lambda: [Evaluator(fig1).supports(w, f) for w in ("w0", "w1")])
    counts = {"rules": 0, "splits": 0, "worlds_created": 0}
    for seq in ("##p |- ##~p", "#p |- ##p"):
        s = parse_sequent(seq)
        for start in ROOTS:
            result = call(tr, "tableau.prove", p, prove, s, start=start)
            tr.last.attrs["rules"] = result.stats.rule_applications
            counts["rules"] += result.stats.rule_applications
            counts["splits"] += result.stats.splits
            counts["worlds_created"] += result.stats.worlds_created
            call(tr, "tableau.serialize", p, result_to_json, result)
            if not isinstance(result, Proved):
                call(tr, "tableau.extract", p, extract_countermodel, result.branch)
            _step_probe(tr, s, start, probe=True)
    valid = parse_sequent("#p |- #~p")
    _bulk_probe(tr, valid, ("tri", ("atom", "p")), ("tri", ("not", ("atom", "p"))), 2,
                peak, probe=True)
    call(tr, "analysis.countermodel_valid", p, find_countermodel, valid, 2)
    call(tr, "analysis.countermodel_invalid", p, find_countermodel,
         parse_sequent("#p |- ##p"), 2)
    call(tr, "analysis.definability", p, check_definability, "reflexive",
         _claims(["#(p | ~p) |- p | ~p"]), 2)
    formulas = call(tr, "analysis.enumerate", p,
                    lambda: list(enumerate_formulas("box", ["p"], 6)))
    tr.last.attrs["formulas"] = len(formulas)
    single = model_from_dict(gen.load_data("fig6_single"))
    pair = model_from_dict(gen.load_data("fig6_pair"))
    report = call(tr, "analysis.scan", p, check_indistinguishability,
                  PointedModel(single, "w0"), PointedModel(pair, "w0"), "box", 6)
    tr.last.attrs["formulas"] = report.formulas_checked
    return counts


WORKLOADS = {w.name: w for w in (ProveWorkload, OracleWorkload, ScansWorkload, DeepWorkload)}
