"""An independent four-valued evaluator on the benchmark's own formula trees.

The benchmark never trusts fdek to check fdek.  Formulas are plain tuples:

    ("atom", name)  ("not", f)  ("tri", f)  ("box", f)  ("and", f, g)  ("or", f, g)

and models are read from the documented JSON form (``model_to_dict``):
``{"worlds": [...], "rel": [[s, t], ...], "val": {w: {var: "T"|"B"|"N"|"F"}}}``.
Every traversal is iterative, so formulas nested thousands deep are fine.

The truth conditions are written from the semantics as stated in the
README of fdek, not from its code:

* ``~f`` swaps the two supports; ``f & g`` is true iff both are true and
  false iff either is false; ``f | g`` dually;
* ``#f`` is true iff the successors agree on both supports of ``f`` and
  each supports its truth or its falsity (so it is true at a dead end); it
  is false iff two successors disagree on a support, or one supports the
  truth of ``f`` while one supports its falsity;
* ``[]f`` is true iff every successor supports the truth of ``f``, and
  false iff some successor supports its falsity.
"""

from __future__ import annotations

import itertools

UNARY = ("not", "tri", "box")
BINARY = ("and", "or")
LETTER = {(True, False): "T", (True, True): "B", (False, False): "N", (False, True): "F"}
FLAGS = {letter: flags for flags, letter in LETTER.items()}
DUAL = {"T": "T", "B": "N", "N": "B", "F": "F"}
VALUE_ORDER = "TBNF"


# --- formula trees ------------------------------------------------------------

def postorder(f):
    """Every node of ``f`` once per occurrence, children before parents."""
    out, stack = [], [(f, False)]
    while stack:
        node, done = stack.pop()
        if done or node[0] == "atom":
            out.append(node)
            continue
        stack.append((node, True))
        for child in reversed(node[1:]):
            stack.append((child, False))
    return out


def size(f) -> int:
    return len(postorder(f))


def depth(f) -> int:
    memo = {}
    for node in postorder(f):
        memo[id(node)] = 0 if node[0] == "atom" else 1 + max(memo[id(c)] for c in node[1:])
    return memo[id(f)]


def variables(f) -> set[str]:
    return {node[1] for node in postorder(f) if node[0] == "atom"}


_SYM = {"not": "~", "tri": "#", "box": "[]", "and": " & ", "or": " | "}
_PREC = {"or": 1, "and": 2}


def to_text(f) -> str:
    """Canonical ASCII text: unary operators bind tightest, then ``&``, then
    ``|``; both binary operators associate left; parentheses only where the
    grammar needs them."""
    text = {}
    for node in postorder(f):
        kind = node[0]
        if kind == "atom":
            text[id(node)] = node[1]
        elif kind in UNARY:
            child = node[1]
            arg = text[id(child)]
            text[id(node)] = _SYM[kind] + (f"({arg})" if child[0] in BINARY else arg)
        else:
            prec = _PREC[kind]
            left, right = node[1], node[2]
            ltext, rtext = text[id(left)], text[id(right)]
            if _PREC.get(left[0], 3) < prec:
                ltext = f"({ltext})"
            if _PREC.get(right[0], 3) <= prec:
                rtext = f"({rtext})"
            text[id(node)] = ltext + _SYM[kind] + rtext
    return text[id(f)]


def sequent_text(premise, conclusion) -> str:
    return to_text(premise) + " |- " + to_text(conclusion)


# --- models -------------------------------------------------------------------

class RefModel:
    """A model read from its JSON form: worlds, successor lists, valuations."""

    def __init__(self, data: dict):
        self.worlds = list(data["worlds"])
        self.succ = {w: [] for w in self.worlds}
        for s, t in data.get("rel", []):
            self.succ[s].append(t)
        self.val = {w: dict(data.get("val", {}).get(w, {})) for w in self.worlds}

    def atom(self, world: str, name: str) -> tuple[bool, bool]:
        return FLAGS[self.val[world].get(name, "N")]


def unary_values(model: RefModel, kind: str, sub: dict) -> dict:
    """The values of ``~f``, ``#f`` or ``[]f`` at every world, from the
    values ``sub`` of ``f``."""
    if kind == "not":
        return {w: (sub[w][1], sub[w][0]) for w in model.worlds}
    out = {}
    for w in model.worlds:
        vals = [sub[v] for v in model.succ[w]]
        if kind == "box":
            out[w] = (all(p for p, _ in vals), any(n for _, n in vals))
            continue
        truths = {p for p, _ in vals}
        falsities = {n for _, n in vals}
        agree = len(truths) <= 1 and len(falsities) <= 1
        valued = all(p or n for p, n in vals)
        some_t = any(p for p, _ in vals)
        some_f = any(n for _, n in vals)
        out[w] = (agree and valued, not agree or (some_t and some_f))
    return out


def binary_values(model: RefModel, kind: str, a: dict, b: dict) -> dict:
    if kind == "and":
        return {w: (a[w][0] and b[w][0], a[w][1] or b[w][1]) for w in model.worlds}
    return {w: (a[w][0] or b[w][0], a[w][1] and b[w][1]) for w in model.worlds}


def evaluate(model: RefModel, f) -> dict:
    """``{world: (supported_true, supported_false)}`` for ``f`` at every world."""
    memo = {}
    for node in postorder(f):
        key = id(node)
        if key in memo:
            continue
        if node[0] == "atom":
            memo[key] = {w: model.atom(w, node[1]) for w in model.worlds}
        elif node[0] in UNARY:
            memo[key] = unary_values(model, node[0], memo[id(node[1])])
        else:
            memo[key] = binary_values(model, node[0], memo[id(node[1])], memo[id(node[2])])
    return memo[id(f)]


def value(model: RefModel, world: str, f) -> str:
    return LETTER[evaluate(model, f)[world]]


def refutes(model: RefModel, world: str, premise, conclusion) -> bool:
    """The premise is supported-true at ``world`` and the conclusion is not."""
    return evaluate(model, premise)[world][0] and not evaluate(model, conclusion)[world][0]


def sequent_holds_on(model: RefModel, premise, conclusion) -> bool:
    prem, conc = evaluate(model, premise), evaluate(model, conclusion)
    return all(conc[w][0] for w in model.worlds if prem[w][0])


# --- exhaustive small-model search ---------------------------------------------

def frames(n: int):
    """Every labelled frame on worlds w0..w(n-1) as (worlds, edge list)."""
    worlds = [f"w{i}" for i in range(n)]
    pairs = [(a, b) for a in worlds for b in worlds]
    for mask in range(2 ** len(pairs)):
        yield worlds, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def models_on(worlds, rel, names):
    """Every model on one frame over ``names``."""
    slots = [(w, v) for w in worlds for v in names]
    for letters in itertools.product(VALUE_ORDER, repeat=len(slots)):
        val = {w: {} for w in worlds}
        for (w, v), x in zip(slots, letters):
            val[w][v] = x
        yield RefModel({"worlds": worlds, "rel": rel, "val": val})


def find_countermodel(premise, conclusion, max_worlds: int):
    """First (model, world) with at most ``max_worlds`` worlds refuting the
    sequent, or None."""
    names = sorted(variables(premise) | variables(conclusion))
    for n in range(1, max_worlds + 1):
        for worlds, rel in frames(n):
            for m in models_on(worlds, rel, names):
                prem, conc = evaluate(m, premise), evaluate(m, conclusion)
                for w in worlds:
                    if prem[w][0] and not conc[w][0]:
                        return m, w
    return None


def sequent_valid_on_frame(worlds, rel, premise, conclusion) -> bool:
    names = sorted(variables(premise) | variables(conclusion))
    return all(sequent_holds_on(m, premise, conclusion) for m in models_on(worlds, rel, names))


def transitive(worlds, rel) -> bool:
    edges = set(map(tuple, rel))
    return all((a, c) in edges for a, b in edges for b2, c in edges if b == b2)


def euclidean(worlds, rel) -> bool:
    edges = set(map(tuple, rel))
    return all((b, c) in edges for a, b in edges for a2, c in edges if a == a2)


# --- bounded expressivity scan ---------------------------------------------------

def separates(a: RefModel, wa: str, b: RefModel, wb: str, language: str,
              max_size: int, glut: bool) -> bool:
    """Is there a formula of ``language`` ("tri" or "box") over the models'
    variables with at most ``max_size`` nodes that is B at (a, wa) when
    ``glut``, and otherwise T or F at (b, wb) with another value at (a, wa)?

    Formulas are built by size from smaller ones, so each costs one node's
    evaluation on the disjoint union of the two models."""
    parts = (("a", a), ("b", b))
    union = RefModel({
        "worlds": [(x, w) for x, m in parts for w in m.worlds],
        "rel": [[(x, s), (x, t)] for x, m in parts for s in m.worlds for t in m.succ[s]],
        "val": {(x, w): m.val[w] for x, m in parts for w in m.worlds}})
    names = sorted({v for row in union.val.values() for v in row})
    modal = "tri" if language == "tri" else "box"

    def found(vals) -> bool:
        va = LETTER[vals[("a", wa)]]
        if glut:
            return va == "B"
        vb = LETTER[vals[("b", wb)]]
        return vb in "TF" and va != vb

    by_size = [[], [evaluate(union, ("atom", v)) for v in names]]
    if any(found(v) for v in by_size[1]):
        return True
    for size in range(2, max_size + 1):
        bucket = [unary_values(union, kind, child)
                  for child in by_size[size - 1] for kind in ("not", modal)]
        for left_size in range(1, size - 1):
            for left in by_size[left_size]:
                for right in by_size[size - 1 - left_size]:
                    bucket.append(binary_values(union, "and", left, right))
                    bucket.append(binary_values(union, "or", left, right))
        if any(found(v) for v in bucket):
            return True
        by_size.append(bucket)
    return False


# --- formula counts --------------------------------------------------------------

def formula_counts(n_vars: int, max_size: int) -> list[int]:
    """c(s), the number of formulas with exactly s nodes over ``n_vars``
    variables and one modality: c(1) = k and
    c(s) = 2 c(s-1) + 2 * sum_{l=1}^{s-2} c(l) c(s-1-l)."""
    c = [0, n_vars]
    for s in range(2, max_size + 1):
        c.append(2 * c[s - 1] + 2 * sum(c[l] * c[s - 1 - l] for l in range(1, s - 1)))
    return c


def formulas_up_to(n_vars: int, max_size: int) -> int:
    return sum(formula_counts(n_vars, max_size))
