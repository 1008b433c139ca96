"""Shared corpus builders for the prover/oracle coherence suites."""

import os
import random
from pathlib import Path

import pytest

from fdek.syntax import And, Atom, Formula, Not, Or, Sequent, Tri, parse_sequent


@pytest.fixture(autouse=True, scope="session")
def _subprocess_pythonpath():
    """Subprocesses (``python -m fdek``) import the same source tree as the
    tests, also under plain ``pytest``, whose ``pythonpath`` setting reaches
    only this process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


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


def hand_sequents() -> list[tuple[Sequent, bool]]:
    return [(parse_sequent(text), verdict) for text, verdict in HAND_VERDICTS]


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
