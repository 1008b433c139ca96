"""Bounded brute-force oracles: model/frame/formula enumeration, countermodel
search, frame-class definability sweeps, and bounded expressivity checks.

Everything here quantifies over *labelled* structures (no isomorphism
reduction): that over-counts, but a universally quantified verdict is
unaffected, only the runtime.  "There is no formula such that ..." claims
are checked up to a stated AST size and reported as bounded evidence, not
as proofs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .bulkeval import frame_from_mask, model_from_indices, sweep
from .semantics import (
    Evaluator, FourValue, Frame, Model, PointedModel, _guard, _models_on_frame,
    formula_valid_on_frame, frame_property, frame_to_dict, model_to_dict,
    sequent_valid_on_frame,
)
from .syntax import (
    LANG_BOX, LANG_TRI, And, Atom, Box, Formula, Not, Or, Sequent, Tri,
    parse_formula, parse_sequent, render, render_sequent, variables,
)

__all__ = [
    "count_models", "model_from_indices", "enumerate_models", "enumerate_frames",
    "enumerate_formulas", "find_countermodel",
    "DefinabilityReport", "check_definability", "PAPER_FRAME_CLASSES",
    "IndistinguishabilityReport", "check_indistinguishability",
    "Claim", "claims_from_text",
]

# A definability claim is either sequent validity or formula validity.
Claim = Union[Sequent, Formula]


def count_models(world_count: int, vars: Sequence[str]) -> int:
    """Closed form 2^(n*n) * 4^(n*|vars|)."""
    n = world_count
    return 2 ** (n * n) * 4 ** (n * len(set(vars)))


def _claim_variables(claim: Claim) -> list[str]:
    if isinstance(claim, Sequent):
        return sorted(variables(claim.premise) | variables(claim.conclusion))
    return sorted(variables(claim))


def enumerate_models(world_count: int, vars: Sequence[str]) -> Iterator[Model]:
    """All models with exactly ``world_count`` labelled worlds over ``vars``:
    every relation crossed with every valuation, in a fixed deterministic
    order (relation mask ascending, then valuation index ascending)."""
    names = frozenset(vars)
    _guard(world_count, len(names))
    for frame in enumerate_frames(world_count):
        yield from _models_on_frame(frame, names)


def enumerate_frames(world_count: int) -> Iterator[Frame]:
    """All labelled frames with exactly ``world_count`` worlds."""
    for rel_mask in range(2 ** (world_count * world_count)):
        yield frame_from_mask(world_count, rel_mask)


def enumerate_formulas(language: str, vars: Sequence[str],
                       max_size: int) -> Iterator[Formula]:
    """All formulas of the tagged language over ``vars`` with at most
    ``max_size`` AST nodes; duplicate-free and ordered by size."""
    if language == LANG_TRI:
        modal = Tri
    elif language == LANG_BOX:
        modal = Box
    else:
        raise ValueError(f"unknown language tag {language!r}")
    names = sorted(set(vars))
    by_size: list[list[Formula]] = [[]]
    for size in range(1, max_size + 1):
        if size == 1:
            bucket: list[Formula] = [Atom(v) for v in names]
        else:
            bucket = [Not(c) for c in by_size[size - 1]]
            bucket += [modal(c) for c in by_size[size - 1]]
            for op in (And, Or):
                for left_size in range(1, size - 1):
                    for left in by_size[left_size]:
                        for right in by_size[size - 1 - left_size]:
                            bucket.append(op(left, right))
        by_size.append(bucket)
        yield from bucket


def find_countermodel(s: Sequent, max_worlds: int) -> PointedModel | None:
    """Smallest-first exhaustive search for a pointed model where the
    premise is supported-true and the conclusion is not.

    The scan order is exactly ``enumerate_models`` (world counts ascending,
    then relation, then valuation) with worlds visited in model order, so
    the witness is reproducible.  Evaluation is vectorized; the result is
    identical to the naive scan.
    """
    names = _claim_variables(s)
    _guard(max_worlds, len(names))
    for n in range(1, max_worlds + 1):
        for space in sweep(n, names):
            hit = space.first_countermodel(s)
            if hit is not None:
                r, v, w = hit
                model = model_from_indices(n, names, int(space.rel_masks[r]), v)
                return PointedModel(model, f"w{w}")
    return None


# --- frame definability --------------------------------------------------------

def _claim_text(claim: Claim) -> str:
    if isinstance(claim, Sequent):
        return render_sequent(claim)
    return "|- " + render(claim)


def claims_from_text(text: str) -> list[Claim]:
    """Parse definability claims, one per line.  ``p |- q`` is sequent
    validity; ``|- f`` or a bare formula is formula validity."""
    claims: list[Claim] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("|-"):
            claims.append(parse_formula(line[2:]))
        elif "|-" in line:
            claims.append(parse_sequent(line))
        else:
            claims.append(parse_formula(line))
    return claims


@dataclass
class DefinabilityReport:
    property: str
    claims: tuple[str, ...]
    max_size: int
    verdict: str                      # "defines" | "refuted"
    witness: dict | None              # frame dict + direction, on refutation
    frames_checked: int
    engine: str
    elapsed: float

    def to_dict(self) -> dict:
        return {"property": self.property, "claims": list(self.claims),
                "max_size": self.max_size, "verdict": self.verdict,
                "witness": self.witness, "frames_checked": self.frames_checked,
                "engine": self.engine, "elapsed": self.elapsed}


def _claims_valid_scalar(fr: Frame, claims: Sequence[Claim]) -> bool:
    for claim in claims:
        if isinstance(claim, Sequent):
            if not sequent_valid_on_frame(fr, claim):
                return False
        else:
            if not formula_valid_on_frame(fr, claim):
                return False
    return True


def _claims_valid_bulk(n: int, claims: Sequence[Claim]) -> np.ndarray:
    valid = np.ones(2 ** (n * n), dtype=bool)
    for claim in claims:
        valid &= np.concatenate([space.valid_per_relation(claim)
                                 for space in sweep(n, _claim_variables(claim))])
    return valid


def check_definability(prop: str, claims: Sequence[Claim], max_size: int, *,
                       engine: str = "bulk") -> DefinabilityReport:
    """Compare ``frame_property`` against joint claim validity on every
    labelled frame with at most ``max_size`` worlds.

    Verdict "defines" means no disagreement was found; "refuted" carries
    the first disagreeing frame in enumeration order and the direction of
    the disagreement.  ``engine="scalar"`` routes validity through
    ``sequent_valid_on_frame`` / ``formula_valid_on_frame``; the default
    vectorized engine computes the same verdicts (asserted in the tests).
    """
    claims = tuple(claims)
    if not claims:
        raise ValueError("need at least one claim")
    if engine not in ("bulk", "scalar"):
        raise ValueError(f"unknown engine {engine!r}")
    for claim in claims:
        _guard(max_size, len(_claim_variables(claim)))
    started = time.perf_counter()
    frames_checked = 0
    witness = None
    for n in range(1, max_size + 1):
        valid_vec = _claims_valid_bulk(n, claims) if engine == "bulk" else None
        for rel_mask, fr in enumerate(enumerate_frames(n)):
            frames_checked += 1
            has_prop = frame_property(fr, prop)
            if valid_vec is not None:
                valid = bool(valid_vec[rel_mask])
            else:
                valid = _claims_valid_scalar(fr, claims)
            if has_prop != valid:
                direction = ("property_holds_but_claims_fail" if has_prop
                             else "claims_hold_but_property_fails")
                witness = {"frame": frame_to_dict(fr), "direction": direction}
                break
        if witness:
            break
    return DefinabilityReport(
        property=prop,
        claims=tuple(_claim_text(c) for c in claims),
        max_size=max_size,
        verdict="defines" if witness is None else "refuted",
        witness=witness,
        frames_checked=frames_checked,
        engine=engine,
        elapsed=time.perf_counter() - started,
    )


# The frame classes with their defining claim sets: reflexive (T), reflexive
# transitive (S4), equivalence (S5), partial-functional (F), empty relation
# (Ver, a formula-validity claim), coreflexive (1).
PAPER_FRAME_CLASSES: dict[str, tuple[Claim, ...]] = {
    "reflexive": (parse_sequent("#(p | ~p) |- p | ~p"),),
    "preorder": (parse_sequent("#p |- ##p"), parse_sequent("#(p | ~p) |- p | ~p")),
    "equivalence": (parse_sequent("@p |- ##p"), parse_sequent("#(p | ~p) |- p | ~p")),
    "partial_functional": (parse_sequent("@p |- #p"),),
    "empty_relation": (parse_formula("#p"),),
    "coreflexive": (parse_sequent("p | ~p |- #p"),),
}


# --- bounded expressivity --------------------------------------------------------

@dataclass
class IndistinguishabilityReport:
    mode: str                         # "transfer" | "glut"
    model_a: dict
    world_a: str
    model_b: dict
    world_b: str
    language: str
    max_size: int
    formulas_checked: int
    verdict: str                      # "no separating formula found" | "separating formula"
    witness: str | None
    witness_values: dict | None
    elapsed: float

    def to_dict(self) -> dict:
        return {"mode": self.mode,
                "model_a": self.model_a, "world_a": self.world_a,
                "model_b": self.model_b, "world_b": self.world_b,
                "language": self.language, "max_size": self.max_size,
                "formulas_checked": self.formulas_checked,
                "verdict": self.verdict, "witness": self.witness,
                "witness_values": self.witness_values, "elapsed": self.elapsed}


def check_indistinguishability(a: PointedModel, b: PointedModel,
                               language: str, max_size: int) -> IndistinguishabilityReport:
    """Scan all formulas of ``language`` (over the models' variables, up to
    ``max_size`` nodes) for a witness that the two pointed models are
    separable.

    For distinct pointed models the check is the classical-value transfer
    property: whenever a formula is T (resp. F) at ``b``, it must be T
    (resp. F) at ``a``; a violating formula is reported.  When ``a`` and
    ``b`` are the same pointed model, the scan instead looks for a formula
    that is both supported-true and supported-false there (a glut), which
    is what a []-style formula can do but, on such models, no #-language
    formula can.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    same = a.model == b.model and a.world == b.world
    names = sorted(a.model.variables | b.model.variables)
    if not names:
        raise ValueError("the models mention no variables")
    ev_a = Evaluator(a.model)
    ev_b = Evaluator(b.model)
    started = time.perf_counter()
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
    return IndistinguishabilityReport(
        mode="glut" if same else "transfer",
        model_a=model_to_dict(a.model), world_a=a.world,
        model_b=model_to_dict(b.model), world_b=b.world,
        language=language, max_size=max_size,
        formulas_checked=checked,
        verdict="separating formula" if witness else "no separating formula found",
        witness=witness, witness_values=witness_values,
        elapsed=time.perf_counter() - started,
    )
