"""Seeded input generators for the four benchmark workloads.

Each generator takes the workload seed and returns the inputs of one round
as plain data: formula text, the benchmark's own formula trees (kept for
the reference checks, never shown to fdek), model JSON, and the verdicts
known in advance.  fdek receives only the text and the JSON.

    python3 bench/gen.py --workload prove --seed 1     # print one round's inputs

The make-up of each round is fixed; the seed changes which formulas and
model pairs fill it.  Costs are kept seed-independent where the metrics
depend on them: random parts are stratified, and the inputs that set the
tail latency are the same on every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random

import reference as ref

DATA_DIR = os.path.join("src", "fdek", "data")


def A(name):
    return ("atom", name)


def load_data(name: str) -> dict:
    with open(os.path.join(DATA_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def random_formula(rng: random.Random, names, depth: int, tri_budget: int):
    """A random #-fragment formula in the style of the prover's coherence
    corpus: at most ``depth`` deep and at most ``tri_budget`` nested #."""
    choices = ["atom", "not", "and", "or"]
    if depth > 0:
        choices += ["not", "and", "or"]
        if tri_budget > 0:
            choices += ["tri", "tri"]
    kind = rng.choice(choices) if depth > 0 else "atom"
    if kind == "atom":
        return A(rng.choice(names))
    if kind == "not":
        return ("not", random_formula(rng, names, depth - 1, tri_budget))
    if kind == "tri":
        return ("tri", random_formula(rng, names, depth - 1, tri_budget - 1))
    return (kind, random_formula(rng, names, depth - 1, tri_budget),
            random_formula(rng, names, depth - 1, tri_budget))


def count_tri(f) -> int:
    return sum(1 for node in ref.postorder(f) if node[0] == "tri")


def literal(rng: random.Random, name: str):
    return ("not", A(name)) if rng.random() < 0.5 else A(name)


def binary(rng: random.Random, left, right):
    return (rng.choice(("and", "or")), left, right)


def parse_text(text: str):
    """The benchmark's own parser for the ASCII syntax it generates (no
    sugar), used to read back scan witnesses; iterative over unary chains."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith("[]", i):
            tokens.append("[]")
            i += 2
        elif ch in "~#&|()":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"bad character {ch!r} in {text!r}")
            tokens.append(text[i:j])
            i = j
    pos = 0

    def unary():
        nonlocal pos
        ops = []
        while tokens[pos] in ("~", "#", "[]"):
            ops.append({"~": "not", "#": "tri", "[]": "box"}[tokens[pos]])
            pos += 1
        if tokens[pos] == "(":
            pos += 1
            node = disj()
            if tokens[pos] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            pos += 1
        else:
            node = A(tokens[pos])
            pos += 1
        for op in reversed(ops):
            node = (op, node)
        return node

    def conj():
        nonlocal pos
        node = unary()
        while pos < len(tokens) and tokens[pos] == "&":
            pos += 1
            node = ("and", node, unary())
        return node

    def disj():
        nonlocal pos
        node = conj()
        while pos < len(tokens) and tokens[pos] == "|":
            pos += 1
            node = ("or", node, conj())
        return node

    node = disj()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def sequent(premise, conclusion, **extra) -> dict:
    return {"text": ref.sequent_text(premise, conclusion),
            "premise": premise, "conclusion": conclusion, **extra}


# --- prove ----------------------------------------------------------------------

# Sequents whose verdicts follow from the truth conditions (True = provable).
# The paper's own examples are marked; bench/selfcheck.py confirms every
# verdict by an exhaustive search of the reference semantics.
HAND_VERDICTS = [
    ("#p |- #~p", True),                  # paper: the proof in figure 2
    ("q | ~q |- #(q | ~q)", False),       # paper: the refutation in figure 3
    ("#p |- ##p", False),                 # paper: transitivity is not defined
    ("@p |- ##p", False),                 # paper: Euclideanness is not defined
    ("#(p | ~p) |- p | ~p", False),       # paper: valid on reflexive frames only
    ("@p |- #p", False),                  # paper: valid on partial-functional frames only
    ("p | ~p |- #p", False),              # paper: valid on coreflexive frames only
    ("p |- p", True),
    ("p & q |- q", True),
    ("q |- q | p", True),
    ("~~p |- p", True),
    ("p |- ~~p", True),
    ("~(p & q) |- ~p | ~q", True),
    ("~p & ~q |- ~(p | q)", True),
    ("p & (q | ~p) |- (p & q) | (p & ~p)", True),
    ("#~p |- #p", True),
    ("##p |- ##~p", True),
    ("#p & #q |- #(p & q)", True),
    ("#p & #q |- #(p | q)", True),
    ("#(p | q) |- #~(p | q)", True),
    ("#p & ~q |- ~q", True),
    ("p |- q", False),
    ("p | q |- q", False),
    ("p & ~p |- q", False),
    ("q |- p | ~p", False),
    ("#p |- p", False),
    ("p |- #p", False),
    ("#(p & q) |- #q", False),
    ("#p |- ~p | p", False),
    ("#p |- ###p", False),
    ("###p |- #p", False),
    ("#p & ~#p |- q", False),
    ("@p |- @q", False),
    ("#(p | q) |- #p | #q", False),
]
NESTED_DEPTHS = (1, 2, 3)
RANDOM_PER_STRATUM = 8          # sequents per (premise depth, conclusion depth)
RANDOM_MAX_TRI = 3              # # nodes per random sequent: keeps the rare
                                # 500-rule proofs out, so costs do not hang on the seed


def prove_inputs(seed: int) -> dict:
    items = [sequent(*(parse_text(side) for side in t.replace("@", "~#").split("|-")),
                     kind="hand", expect=verdict)
             for t, verdict in HAND_VERDICTS]
    rng = random.Random(seed)
    for _ in range(RANDOM_PER_STRATUM):
        for dp in range(1, 5):
            for dc in range(1, 5):
                while True:
                    prem = random_formula(rng, ["p", "q"], dp, 3)
                    conc = random_formula(rng, ["p", "q"], dc, 3)
                    if count_tri(prem) + count_tri(conc) <= RANDOM_MAX_TRI:
                        break
                items.append(sequent(prem, conc, kind="random", expect=None))
    for k in NESTED_DEPTHS:
        prem, conc = A("p"), ("not", A("p"))
        for _ in range(k):
            prem, conc = ("tri", prem), ("tri", conc)
        items.append(sequent(prem, conc, kind=f"nested{k}", expect=True))
    return {"sequents": items}


# --- oracle -------------------------------------------------------------------------

PAPER_CLASSES = {
    "reflexive": ["#(p | ~p) |- p | ~p"],
    "preorder": ["#p |- ##p", "#(p | ~p) |- p | ~p"],
    "equivalence": ["~#p |- ##p", "#(p | ~p) |- p | ~p"],
    "partial_functional": ["~#p |- #p"],
    "empty_relation": ["|- #p"],
    "coreflexive": ["p | ~p |- #p"],
}
REFUTATIONS = [("transitive", ["#p |- ##p"], 3), ("euclidean", ["~#p |- ##p"], 2)]
INVALID_PER_ROUND = 60


def _valid(rng, names):
    """A sequent valid by construction with a fixed operator count, so the
    exhaustive search costs the same whatever the seed.  With A a binary of
    two literals: ``#A |- #~A`` over one variable, ``A |- A | l`` or
    ``l & A |- l`` over two, and ``#A & B |- B`` over three or four."""
    lits = [literal(rng, v) for v in names]
    rng.shuffle(lits)
    if len(lits) == 1:
        core = binary(rng, lits[0], literal(rng, names[0]))
        return ("tri", core), ("tri", ("not", core))
    body = binary(rng, lits[0], lits[1])
    if len(lits) == 2:
        if rng.random() < 0.5:
            return body, ("or", body, lits[0])
        return ("and", lits[0], body), lits[0]
    side = lits[2] if len(lits) == 3 else binary(rng, lits[2], lits[3])
    return ("and", ("tri", body), side), side


def _invalid(rng, names):
    """A random sequent with a one-world countermodel, found by the reference."""
    while True:
        prem = random_formula(rng, names, rng.randint(1, 3), 2)
        conc = random_formula(rng, names, rng.randint(1, 3), 2)
        if ref.find_countermodel(prem, conc, 1) is not None:
            return prem, conc


def oracle_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    searches = []
    # (variables, max worlds, count).  The two 4-variable searches are the
    # costliest operations and appear twice a round, so they set the tail
    # latency on every seed.
    for names, worlds, count in ((["p", "q"], 3, 2), (["p"], 3, 6),
                                 (["p", "q", "r", "s"], 2, 2), (["p", "q", "r"], 2, 1)):
        for _ in range(count):
            prem, conc = _valid(rng, names)
            searches.append(sequent(prem, conc, max_worlds=worlds, expect=True))
    for i in range(INVALID_PER_ROUND):
        names = [["p"], ["p", "q"], ["p", "q", "r"], ["p", "q", "r", "s"]][i % 4]
        prem, conc = _invalid(rng, names)
        searches.append(sequent(prem, conc, max_worlds=3 if len(names) <= 2 else 2, expect=False))
    rng.shuffle(searches)
    sweeps = [{"property": prop, "claims": claims, "max_size": 3, "expect": "defines"}
              for prop, claims in PAPER_CLASSES.items()]
    sweeps += [{"property": prop, "claims": claims, "max_size": size, "expect": "refuted"}
               for prop, claims, size in REFUTATIONS]
    return {"searches": searches, "sweeps": sweeps}


# --- scans --------------------------------------------------------------------------

SCAN_MODELS = ("fig1", "fig5_left", "fig5_right", "fig6_single", "fig6_pair",
               "fig7", "fig9_glut", "fig9_gap", "fig10")
PAPER_SCAN_SIZE = 9
PAIR_SCAN_SIZE = 6
RANDOM_PAIRS = {True: 12, False: 4}     # seeded pairs that do / do not separate


def relabel(data: dict, rng: random.Random) -> tuple[dict, dict]:
    """An isomorphic copy with fresh world names in a seeded order."""
    worlds = list(data["worlds"])
    names = [f"u{i}" for i in range(len(worlds))]
    rng.shuffle(names)
    ren = dict(zip(worlds, names))
    order = sorted(worlds, key=lambda w: ren[w])
    copy = {"worlds": [ren[w] for w in order],
            "rel": [[ren[s], ren[t]] for s, t in data.get("rel", [])],
            "val": {ren[w]: dict(row) for w, row in data.get("val", {}).items()}}
    return copy, ren


def scans_inputs(seed: int) -> dict:
    """The two paper scans, every one-variable bundled pointed model against
    an isomorphic copy in both languages, and seeded pairs of bundled pointed
    models: a fixed number that the reference finds separable and a fixed
    number it does not, so the seed changes the pairs but not the mix."""
    rng = random.Random(seed)
    models = {name: load_data(name) for name in SCAN_MODELS}
    points = [(name, w) for name in SCAN_MODELS for w in models[name]["worlds"]]
    scans = [
        {"a": models["fig6_single"], "wa": "w0", "b": models["fig6_pair"], "wb": "w0",
         "language": "box", "max_size": PAPER_SCAN_SIZE, "kind": "paper", "expect": False},
        {"a": models["fig7"], "wa": "w0", "b": models["fig7"], "wb": "w0",
         "language": "tri", "max_size": PAPER_SCAN_SIZE, "kind": "paper", "expect": False},
    ]
    for name, w in points:
        for language in ("tri", "box"):
            copy, ren = relabel(models[name], rng)
            scans.append({"a": models[name], "wa": w, "b": copy, "wb": ren[w],
                          "language": language, "max_size": PAIR_SCAN_SIZE,
                          "kind": "isomorphic", "expect": False})
    wanted = dict(RANDOM_PAIRS)
    while any(wanted.values()):
        (na, wa), (nb, wb) = rng.choice(points), rng.choice(points)
        language = rng.choice(("tri", "box"))
        sep = ref.separates(ref.RefModel(models[na]), wa, ref.RefModel(models[nb]), wb,
                            language, PAIR_SCAN_SIZE, glut=(na, wa) == (nb, wb))
        if wanted[sep]:
            wanted[sep] -= 1
            scans.append({"a": models[na], "wa": wa, "b": models[nb], "wb": wb,
                          "language": language, "max_size": PAIR_SCAN_SIZE,
                          "kind": "random", "expect": sep})
    rng.shuffle(scans)
    return {"scans": scans}


# --- deep ----------------------------------------------------------------------------

# The left-deep spines go to 400: they cost about the same at every world
# whatever the seed, and as the costliest operations they set the tail.
# The chains, whose cost at 400 would hang on where the seed puts the #,
# stop at 200.
CHAIN_DEPTHS = (25, 50, 100, 200)
SPINE_DEPTHS = (25, 50, 100, 200, 400)
FAILING_DEPTHS = (600, 2000)
DEEP_MODELS = ("fig1", "fig10", "ex22")


def chain(rng: random.Random, depth: int, leaf):
    """``depth`` unary operators over ``leaf``, half of them #."""
    ops = ["tri"] * (depth // 2) + ["not"] * (depth - depth // 2)
    rng.shuffle(ops)
    node = leaf
    for op in ops:
        node = (op, node)
    return node


def left_deep(rng: random.Random, depth: int, names):
    """A left-deep &/| spine of ``depth`` levels with small right operands."""
    node = A(names[0])
    for _ in range(depth):
        right = literal(rng, rng.choice(names))
        if rng.random() < 0.5:
            right = ("tri", right)
        node = binary(rng, node, right)
    return node


def mixed(rng: random.Random, depth: int, names):
    """Alternating # / ~ chains and binary levels, ``depth`` deep in all."""
    node = A(names[0])
    level = 0
    while level < depth:
        step = min(rng.randint(2, 6), depth - level)
        if step % 2 == 1 or rng.random() < 0.5:
            node = chain(rng, step, node)
        else:
            node = chain(rng, step - 1, binary(rng, node, literal(rng, rng.choice(names))))
        level += step
    return node


def deep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    names = ["p", "r"]
    formulas = [left_deep(rng, d, names) for d in SPINE_DEPTHS]
    for d in CHAIN_DEPTHS:
        formulas.append(chain(rng, d, A(rng.choice(names))))
        formulas.append(mixed(rng, d, names))
    items = [{"text": ref.to_text(f), "tree": f, "depth": ref.depth(f), "fails": False}
             for f in formulas]
    for d in FAILING_DEPTHS:
        f = chain(rng, d, A("p"))
        items.append({"text": ref.to_text(f), "tree": f, "depth": d, "fails": True})
    # Every variable is given at every world, explicitly N where the figure
    # leaves it out, so that the dual model swaps it too.
    models = {}
    for name in DEEP_MODELS:
        data = load_data(name)
        data["val"] = {w: {v: data.get("val", {}).get(w, {}).get(v, "N") for v in names}
                       for w in data["worlds"]}
        models[name] = data
    return {"formulas": items, "models": models}


GENERATORS = {"prove": prove_inputs, "oracle": oracle_inputs,
              "scans": scans_inputs, "deep": deep_inputs}


def shown(inputs):
    """The inputs as fdek sees them: text, model JSON and expectations,
    without the benchmark's formula trees."""
    if isinstance(inputs, dict):
        return {k: shown(v) for k, v in inputs.items()
                if k not in ("tree", "premise", "conclusion")}
    if isinstance(inputs, list):
        return [shown(v) for v in inputs]
    return inputs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps(shown(GENERATORS[args.workload](args.seed)), indent=1))


if __name__ == "__main__":
    main()
