"""Shared corpus builders for the prover/oracle coherence suites."""

import os
import random
import sys
from pathlib import Path

import pytest

from fdek import bulkeval
from fdek.bulkeval import frame_from_mask, model_from_indices
from fdek.semantics import Evaluator, frame_property, frame_to_dict
from fdek.syntax import (
    ATOM_RE, And, Atom, Box, Formula, Not, Or, Sequent, Tri, parse_sequent, variables,
)


@pytest.fixture(autouse=True, scope="session")
def _subprocess_pythonpath():
    """Subprocesses (``python -m fdek``) import the same source tree as the
    tests, also under plain ``pytest``, whose ``pythonpath`` setting reaches
    only this process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def cold_caches():
    """fdek's process-wide caches, empty when the test starts and again when
    it ends, so what the test reads does not depend on the tests before it.
    They are the ``functools.lru_cache`` functions of the ``fdek`` modules:
    today the sweep plans, relation lists and atom tables of ``bulkeval``,
    and ``analysis._counts``.  The value clears them again."""
    def clear() -> None:
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "fdek":
                for f in vars(module).values():
                    if hasattr(f, "cache_clear"):
                        f.cache_clear()
    clear()
    yield clear
    clear()


@pytest.fixture
def block_pairs(monkeypatch):
    """A setter of the block budget ``bulkeval._BLOCK_PAIRS`` for one test.
    A plan takes the budget when it is built, and a sweep's kept plan is
    kept per budget, so no cache needs clearing."""
    def set_pairs(pairs: int) -> None:
        monkeypatch.setattr(bulkeval, "_BLOCK_PAIRS", pairs)
    return set_pairs


@pytest.fixture(params=["default", "tiny"])
def chunk_budget(request, block_pairs):
    """Sweeps with the default block budget, and with one of 100 (relation,
    valuation) pairs, so small that at two worlds every sweep splits: 6
    relations per block for one variable (the last block short, the others
    after the first starting mid-list), and for two variables aligned blocks
    of 64 valuations of one relation, 64 the largest power of 4 within the
    budget (four per relation, all after the first starting mid-relation).
    A given frame of more than 3 valuation slots is then read in aligned
    blocks of 64 valuations.  The fixture's value is the budget's name."""
    if request.param == "tiny":
        block_pairs(100)
    return request.param


# Hand-written sequents with known verdicts (True = provable).
HAND_VERDICTS = [
    ("p & q |- p", True),
    ("p & q |- q", True),
    ("p |- p", True),
    ("p |- p | q", True),
    ("q |- p | q", True),
    ("p |- ~~p", True),
    ("~~p |- p", True),
    ("~(p | q) |- ~p & ~q", True),
    ("~p & ~q |- ~(p | q)", True),
    ("~(p & q) |- ~p | ~q", True),
    ("~p | ~q |- ~(p & q)", True),
    ("p & (q | r) |- (p & q) | (p & r)", True),
    ("(p & q) | (p & r) |- p & (q | r)", True),
    ("#p |- #~p", True),
    ("#~p |- #p", True),
    ("#p |- #(p & p)", True),
    ("#(p & p) |- #p", True),
    ("#p |- #(p | p)", True),
    ("#~(p & q) |- #(~p | ~q)", True),
    ("#(~p | ~q) |- #~(p & q)", True),
    ("#p & q |- q", True),
    ("#p & #q |- #q", True),
    ("##p |- ##~p", True),
    ("p |- q", False),
    ("p | q |- p", False),
    ("p & ~p |- q", False),          # no explosion
    ("q |- p | ~p", False),          # no tautologies
    ("p |- p & p", True),
    ("#p |- p", False),
    ("p |- #p", False),
    ("#p |- ##p", False),
    ("@p |- #p", False),
    ("p | ~p |- #p", False),
    ("#(p | ~p) |- p | ~p", False),
    ("#p & ~#p |- q", False),        # modal glut is satisfiable
    ("#(p & q) |- #p", False),
    ("#p & #q |- #(p & q)", True),   # uniform values are closed under &
    ("#p |- p | ~p", False),
    ("###p |- #p", False),
    ("#p |- ###p", False),
    ("@p |- ##p", False),
    ("@p |- @q", False),
    ("r & (p | q) |- r", True),
]


def hand_sequents(mapping: dict[str, str] | None = None) -> list[tuple[Sequent, bool]]:
    """The hand corpus, each variable replaced at once by its text in
    ``mapping``, if given: a renaming, or a uniform substitution."""
    mapping = mapping or {}
    return [(parse_sequent(ATOM_RE.sub(lambda m: mapping.get(m[0], m[0]), text)), verdict)
            for text, verdict in HAND_VERDICTS]


# Injective variable renamings; the second moves p past q in sorted order.
RENAMINGS = [{"p": "q", "q": "r", "r": "p"}, {"p": "s", "q": "p", "r": "t0"}]


def random_formula(rng: random.Random, names, depth: int, tri_budget: int) -> Formula:
    choices = ["atom", "not", "and", "or"]
    if depth > 0:
        choices += ["not", "and", "or"]
        if tri_budget > 0:
            choices += ["tri", "tri"]
    kind = rng.choice(choices) if depth > 0 else "atom"
    if kind == "atom":
        return Atom(rng.choice(names))
    if kind == "not":
        return Not(random_formula(rng, names, depth - 1, tri_budget))
    if kind == "tri":
        return Tri(random_formula(rng, names, depth - 1, tri_budget - 1))
    left = random_formula(rng, names, depth - 1, tri_budget)
    right = random_formula(rng, names, depth - 1, tri_budget)
    return And(left, right) if kind == "and" else Or(left, right)


# The prefix runs of #, [], @ (~#) and <> (~[]~), outermost first.
_MODAL_RUNS = ((Tri,), (Box,), (Not, Tri), (Not, Box, Not))


def random_modal_formula(rng: random.Random, names, nodes: int, depth: int) -> Formula:
    """A random formula over ``names`` with ``nodes`` connectives among ~,
    &, |, #, [], @ and <> (each modal run one connective), of modal depth
    at most ``depth``."""
    if nodes <= 0:
        return Atom(rng.choice(names))
    kind = rng.choice(("not", "and", "or", "modal", "modal") if depth else ("not", "and", "or"))
    if kind == "not":
        return Not(random_modal_formula(rng, names, nodes - 1, depth))
    if kind == "modal":
        f = random_modal_formula(rng, names, nodes - 1, depth - 1)
        for node in reversed(rng.choice(_MODAL_RUNS)):
            f = node(f)
        return f
    split = rng.randint(0, nodes - 1)
    left = random_modal_formula(rng, names, split, depth)
    right = random_modal_formula(rng, names, nodes - 1 - split, depth)
    return And(left, right) if kind == "and" else Or(left, right)


def random_sequents(count: int, seed: int = 20240817) -> list[Sequent]:
    """Deterministic random corpus over {p, q}; modal nesting depth <= 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        prem = random_formula(rng, ["p", "q"], rng.randint(1, 4), 3)
        conc = random_formula(rng, ["p", "q"], rng.randint(1, 4), 3)
        out.append(Sequent(prem, conc))
    return out


def random_valid_sequents(count: int, seed: int = 7321) -> list[Sequent]:
    """Sequents valid by construction, for soundness-side coverage."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        left = random_formula(rng, ["p", "q"], rng.randint(1, 3), 2)
        right = random_formula(rng, ["p", "q"], rng.randint(1, 3), 2)
        pattern = rng.randrange(4)
        if pattern == 0:
            out.append(Sequent(And(left, right), left))
        elif pattern == 1:
            out.append(Sequent(left, Or(left, right)))
        elif pattern == 2:
            out.append(Sequent(Tri(left), Tri(Not(left))))
        else:
            out.append(Sequent(left, Not(Not(left))))
    return out


def corpus(min_size: int = 200) -> list[Sequent]:
    base = [s for s, _ in hand_sequents()]
    base += random_valid_sequents(30)
    base += random_sequents(max(0, min_size - len(base)) + 20)
    return base


# --- the scalar reference for exhaustive validity ----------------------------

def scalar_valid_on_frame(frame, claim) -> bool:
    """Validity of a sequent or formula claim on ``frame``, one scalar
    ``Evaluator`` per valuation, the reference for the bulk evaluator.
    Each model is decoded by ``model_from_indices`` on the copy of
    ``frame`` whose world ``frame.worlds[i]`` is renamed ``w<i>``; renaming
    worlds changes no validity verdict."""
    premises = [claim.premise] if isinstance(claim, Sequent) else []
    conclusion = claim.conclusion if isinstance(claim, Sequent) else claim
    names = sorted(variables(*premises, conclusion))
    n = len(frame.worlds)
    index = {w: i for i, w in enumerate(frame.worlds)}
    mask = sum(1 << index[s] * n + index[t] for s, t in frame.relation)
    for val_index in range(4 ** (n * len(names))):
        model = model_from_indices(n, names, mask, val_index)
        ev = Evaluator(model)
        for w in model.frame.worlds:
            if all(ev.supports(w, f)[0] for f in premises) and not ev.supports(w, conclusion)[0]:
                return False
    return True


def scalar_definability(prop: str, claims, max_size: int):
    """``(verdict, witness, frames_checked)`` of ``check_definability``,
    computed frame by frame with ``scalar_valid_on_frame``."""
    frames_checked = 0
    for n in range(1, max_size + 1):
        for rel_mask in range(2 ** (n * n)):
            frames_checked += 1
            frame = frame_from_mask(n, rel_mask)
            has_prop = frame_property(frame, prop)
            if has_prop != all(scalar_valid_on_frame(frame, c) for c in claims):
                direction = ("property_holds_but_claims_fail" if has_prop
                             else "claims_hold_but_property_fails")
                witness = {"frame": frame_to_dict(frame), "direction": direction}
                return "refuted", witness, frames_checked
    return "defines", None, frames_checked
