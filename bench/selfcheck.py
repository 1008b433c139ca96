#!/usr/bin/env python3
"""Self-checks of the benchmark's own reference code.

    python3 bench/selfcheck.py [--seed 1]

Run from the root of an fdek checkout.  Checks that

* the reference evaluator agrees with ``fdek.Evaluator`` on seeded random
  models and formulas of both modalities;
* the formula-count recurrence gives 23213 for one variable at size 9 and
  matches ``enumerate_formulas`` on small cases;
* the canonical text of the generators reads back to the same tree, in the
  benchmark's parser and in fdek's;
* every hand-written verdict of the prove workload holds in the reference
  semantics: a provable sequent has no countermodel with at most two worlds
  and an unprovable one has one with at most three;
* the generators give the same inputs for the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import gen
import reference as ref


def random_model(rng: random.Random, names) -> dict:
    worlds = [f"w{i}" for i in range(rng.randint(1, 4))]
    rel = [[a, b] for a in worlds for b in worlds if rng.random() < 0.4]
    val = {w: {v: rng.choice(ref.VALUE_ORDER) for v in names} for w in worlds}
    return {"worlds": worlds, "rel": rel, "val": val}


def random_any(rng: random.Random, names, depth: int):
    """A random formula that may use both modalities."""
    kind = rng.choice(["atom", "not", "tri", "box", "and", "or"]) if depth else "atom"
    if kind == "atom":
        return ("atom", rng.choice(names))
    if kind in ref.UNARY:
        return (kind, random_any(rng, names, depth - 1))
    return (kind, random_any(rng, names, depth - 1), random_any(rng, names, depth - 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fdek", "__init__.py")):
        raise SystemExit("selfcheck: src/fdek not found; run from the root of an fdek checkout")
    sys.path.insert(0, src)
    from fdek import (Evaluator, enumerate_formulas, model_from_dict, parse_formula,
                      render)

    failures = []
    rng = random.Random(args.seed)
    compared = 0
    for _ in range(300):
        data = random_model(rng, ["p", "q"])
        model, rmodel = model_from_dict(data), ref.RefModel(data)
        ev = Evaluator(model)
        for _ in range(10):
            f = random_any(rng, ["p", "q"], rng.randint(0, 5))
            text = ref.to_text(f)
            if gen.parse_text(text) != f or render(parse_formula(text)) != text:
                failures.append(f"text round trip: {text}")
            got = ref.evaluate(rmodel, f)
            for w in data["worlds"]:
                compared += 1
                if ev.supports(w, parse_formula(text)) != got[w]:
                    failures.append(f"value of {text} at {w} on {data}")
    print(f"reference vs fdek.Evaluator: {compared} values compared")

    if ref.formulas_up_to(1, 9) != 23213:
        failures.append(f"recurrence gives {ref.formulas_up_to(1, 9)} formulas, not 23213")
    for k, size in ((1, 9), (2, 6), (3, 5)):
        names = ["p", "q", "r"][:k]
        for language in ("tri", "box"):
            n = sum(1 for _ in enumerate_formulas(language, names, size))
            if n != ref.formulas_up_to(k, size):
                failures.append(f"{k} variables, size {size}: recurrence "
                                f"{ref.formulas_up_to(k, size)}, enumeration {n}")
    print(f"formula counts: c(<=9) for one variable is {ref.formulas_up_to(1, 9)}")

    for item in gen.prove_inputs(args.seed)["sequents"]:
        if item["kind"] != "hand":
            continue
        prem, conc = item["premise"], item["conclusion"]
        if item["expect"]:
            bad = ref.find_countermodel(prem, conc, 2) is not None
        else:
            bad = ref.find_countermodel(prem, conc, 3) is None
        if bad:
            failures.append(f"hand verdict of {item['text']} does not hold")
    print(f"hand verdicts: {len(gen.HAND_VERDICTS)} checked")

    for name, make in gen.GENERATORS.items():
        if json.dumps(gen.shown(make(args.seed))) != json.dumps(gen.shown(make(args.seed))):
            failures.append(f"{name} inputs differ between two calls with one seed")
    print("generators: the same seed gives the same inputs")

    for message in failures[:20]:
        print(f"FAILED: {message}")
    print("selfcheck passed" if not failures else f"selfcheck: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
