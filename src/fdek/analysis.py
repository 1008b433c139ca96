"""Bounded brute-force oracles: formula enumeration, countermodel search,
frame-class definability sweeps, and bounded expressivity checks.

The bulk oracles (``find_countermodel``, ``check_definability``) answer for
every *labelled* model up to a world count, in the labelled order: world
count, relation mask, valuation index, then world, each ascending
(``bulkeval`` states the layout).  They sweep one relation per isomorphism
class: their questions are invariant under renaming worlds, and the first
answer in labelled order lies on the smallest mask of its class, so
witnesses and frame counts are those of the labelled scan.  Past one world
the countermodel search sweeps only the classes rooted within the sequent's
modal depth, the only ones that can hold a smallest countermodel.
"There is no formula such that ..." claims are checked up to a stated AST
size and reported as bounded evidence, not as proofs.  Those scans fold
the clauses over the distinct value vectors of each formula size and
their first positions in the enumeration order (``_first_formula``),
whose layout ``_sections`` states once for the enumeration, the fold and
the decoder of the witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from itertools import product, starmap
from math import prod
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .bulkeval import (
    _guard, _successors, frame_from_mask, model_from_indices, representatives, sweep,
)
from .semantics import (
    FRAME_PROPERTIES, FourValue, PointedModel, and_clause, atom_clause,
    box_clause, frame_to_dict, model_to_dict, not_clause, or_clause, tri_clause,
)
from .syntax import (
    LANG_BOX, LANG_TRI, And, Atom, Box, Formula, Not, Or, Sequent, Tri,
    modal_depth, parse_formula, parse_sequent, render, render_sequent, variables,
)

__all__ = [
    "model_from_indices", "enumerate_formulas", "find_countermodel",
    "DefinabilityReport", "check_definability", "PAPER_FRAME_CLASSES",
    "IndistinguishabilityReport", "check_indistinguishability",
    "Claim", "claims_from_text",
]

# A definability claim is either sequent validity or formula validity.
Claim = Union[Sequent, Formula]


def _claim_variables(claim: Claim) -> list[str]:
    if isinstance(claim, Sequent):
        return sorted(variables(claim.premise) | variables(claim.conclusion))
    return sorted(variables(claim))


_MODALITIES = {LANG_TRI: (Tri, tri_clause), LANG_BOX: (Box, box_clause)}


def _modality(language: str) -> tuple:
    """The constructor and the clause of the language's modality."""
    if language not in _MODALITIES:
        raise ValueError(f"unknown language tag {language!r}")
    return _MODALITIES[language]


def _sections(size: int, unary: Sequence[Callable],
              binary: Sequence[Callable]) -> Iterator[tuple[Callable, tuple[int, ...]]]:
    """The formula enumeration order, stated once: the sections of the
    formulas of ``size`` >= 2 nodes in order, as ``(op, operand sizes)``.
    Size 1 is the leaves.  Then each ``unary`` op over the size below, then
    each ``binary`` op over every pair of sizes summing to one less, left
    sizes ascending.  A section lists its operands left-major, as
    ``itertools.product`` does: the operand at position ``i`` of size
    ``l`` with the one at position ``j`` of size ``r`` sits at position
    ``i * count(r) + j`` of its section."""
    for op in unary:
        yield op, (size - 1,)
    for op in binary:
        for left in range(1, size - 1):
            yield op, (left, size - 1 - left)


def _operators(language: str, succ: tuple[int, ...] | None = None) -> tuple[tuple, tuple]:
    """The unary and the binary operators of the language, in enumeration
    order: the formula constructors, or, given the successor bitsets
    ``succ`` of a model, their clauses on that model's value vectors."""
    modal, modal_clause = _modality(language)
    if succ is None:
        return (Not, modal), (And, Or)
    # The modal clause is the costly one, and a fold meets each value at
    # several sizes: one call per distinct value.
    modal = lru_cache(maxsize=None)(partial(modal_clause, succ=succ))
    return (not_clause, modal), (and_clause, or_clause)


def enumerate_formulas(language: str, vars: Sequence[str],
                       max_size: int) -> Iterator[Formula]:
    """All formulas of the tagged language over ``vars`` with at most
    ``max_size`` AST nodes; duplicate-free, ordered by size and within a
    size by ``_sections``."""
    unary, binary = _operators(language)
    by_size: list[list[Formula]] = [[], [Atom(v) for v in sorted(set(vars))]]
    for size in range(1, max_size + 1):
        if size > 1:
            bucket: list[Formula] = []
            for op, sizes in _sections(size, unary, binary):
                bucket += starmap(op, product(*(by_size[k] for k in sizes)))
            by_size.append(bucket)
        yield from by_size[size]


def _formula_at(size: int, pos: int, leaves: list[Formula], unary: Sequence[Callable],
                binary: Sequence[Callable], counts: Sequence[int]) -> Formula:
    """The formula at position ``pos`` among those of ``size`` nodes, decoded
    through ``_sections`` from the number of formulas of each smaller size
    (``counts``) alone."""
    if size == 1:
        return leaves[pos]
    for op, sizes in _sections(size, unary, binary):
        width = prod(counts[k] for k in sizes)
        if pos < width:
            break
        pos -= width
    operands = []
    for k in reversed(sizes):
        pos, i = divmod(pos, counts[k])
        operands.append(_formula_at(k, i, leaves, unary, binary, counts))
    return op(*reversed(operands))


def find_countermodel(s: Sequent, max_worlds: int) -> PointedModel | None:
    """Smallest-first exhaustive search for a pointed model where the
    premise is supported-true and the conclusion is not.

    The witness is the first in labelled order (world counts ascending,
    then relation mask, then valuation index, then world), so it is
    reproducible.  Evaluation is vectorized over one relation per
    isomorphism class: a relation refutes iff every renaming of it does,
    so the first refuting relation is the smallest of its class, and the
    result is identical to the naive scan.

    Only rooted classes are swept; at one world both relations are.  A sequent
    of modal depth d (``#`` and ``[]`` counted) is evaluated at w from the
    worlds within d steps of w alone, each of them less than d steps away
    with all its successors.  So if a model on n worlds refutes it at w and
    some world lies more than d steps from w, the submodel on the worlds
    within d steps refutes it on fewer worlds.  Once no smaller model
    refutes the sequent, every refuting relation on n worlds reaches all n
    worlds from the refuting world within d steps; the other classes hold no
    countermodel, and the first witness is unchanged.  At depth 0 no class
    of two or more worlds is rooted, so a propositional sequent is decided
    at one world.
    """
    names = _claim_variables(s)
    _guard(max_worlds, len(names))
    depth = modal_depth(s.premise, s.conclusion)
    for n in range(1, max_worlds + 1):
        for space in sweep(n, names, depth):
            hit = space.first_countermodel(s)
            if hit is not None:
                r, v, w = hit
                model = model_from_indices(n, names, int(space.masks[r]), space.start[1] + v)
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
    elapsed: float

    def to_dict(self) -> dict:
        # "engine" stays in the JSON contract, though only one engine is left.
        return {"property": self.property, "claims": list(self.claims),
                "max_size": self.max_size, "verdict": self.verdict,
                "witness": self.witness, "frames_checked": self.frames_checked,
                "engine": "bulk", "elapsed": self.elapsed}


def check_definability(prop: str, claims: Sequence[Claim], max_size: int) -> DefinabilityReport:
    """Compare the frame property ``prop`` against joint claim validity on
    every labelled frame with at most ``max_size`` worlds.

    Both sides are invariant under renaming worlds, so they are compared
    on one relation per isomorphism class, on the successor bitsets the
    sweep itself decodes; no ``Frame`` is built but the witness.  Verdict
    "defines" means no disagreement was found; "refuted" carries the first
    disagreeing frame in labelled enumeration order, which is the smallest
    of its class, and the direction of the disagreement.
    ``frames_checked`` counts the labelled frames up to and including the
    witness.  An unknown property or a sweep beyond the size guard is
    refused before anything is swept.
    """
    claims = tuple(claims)
    if not claims:
        raise ValueError("need at least one claim")
    for claim in claims:
        _guard(max_size, len(_claim_variables(claim)))
    if prop not in FRAME_PROPERTIES:
        raise ValueError(f"unknown frame property {prop!r}")
    holds = FRAME_PROPERTIES[prop]
    started = time.perf_counter()
    frames_checked = 0
    witness = None
    for n in range(1, max_size + 1):
        reps = representatives(n)
        valid = np.ones(len(reps), dtype=bool)
        for claim in claims:
            for space in sweep(n, _claim_variables(claim)):
                r = space.start[0]
                valid[r:r + len(space.succ)] &= space.valid_per_relation(claim)
        for rel_mask, succ, ok in zip(reps.tolist(), _successors(n, reps).tolist(),
                                      valid.tolist()):
            has_prop = holds(succ)
            if has_prop != ok:
                direction = ("property_holds_but_claims_fail" if has_prop
                             else "claims_hold_but_property_fails")
                witness = {"frame": frame_to_dict(frame_from_mask(n, rel_mask)),
                           "direction": direction}
                frames_checked += rel_mask + 1
                break
        if witness:
            break
        frames_checked += 2 ** (n * n)
    return DefinabilityReport(
        property=prop,
        claims=tuple(_claim_text(c) for c in claims),
        max_size=max_size,
        verdict="defines" if witness is None else "refuted",
        witness=witness,
        frames_checked=frames_checked,
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
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _first_formula(points: Sequence[PointedModel], names: Sequence[str], language: str,
                   max_size: int, hit: Callable[[list[tuple[int, int]]], bool],
                   ) -> tuple[int, list[tuple[int, int]] | None, Formula | None]:
    """The first formula of ``enumerate_formulas(language, names, max_size)``
    whose support flags at the ``points``, one ``(pos, neg)`` pair each,
    satisfy ``hit``: ``(formulas_checked, flags, formula)``, where
    ``formulas_checked`` runs up to and including that formula, or over
    all of them, and ``flags`` and ``formula`` are None if none hits.

    No formula is evaluated or built but the one returned.  The clauses of
    ``semantics`` are folded over value vectors on the disjoint union of
    the points' models, one copy per point.  Each size keeps only its
    distinct values, each with its first position in that size's
    enumeration order, and the number of its formulas.  A value's first
    position comes from the first positions of its operands, through the
    layout of ``_sections``, and each size's values are met in order of
    their first positions, so the first hit is the first hitting formula.
    """
    names = sorted(set(names))
    leaves, succ, bits = [(0, 0)] * len(names), (), []
    for point in points:
        shift = len(succ)
        bits.append(shift + point.model.frame.index[point.world])
        leaves = [(pos | p << shift, neg | n << shift) for (pos, neg), (p, n)
                  in zip(leaves, (atom_clause(point.model, v) for v in names))]
        succ += tuple(s << shift for s in point.model.frame.succ)

    def flags(v: tuple[int, int]) -> list[tuple[int, int]]:
        return [(v[0] >> i & 1, v[1] >> i & 1) for i in bits]

    clauses = _operators(language, succ)
    counts: list[int] = [0]                  # the number of formulas of each size
    firsts: list[dict] = [{}]                # each size's values -> first position
    seen: set[tuple[int, int]] = set()       # the values of every smaller size
    checked = 0
    for size in range(1, max_size + 1):
        first: dict[tuple[int, int], int] = {}
        if size == 1:
            for i, v in enumerate(leaves):
                first.setdefault(v, i)
            count = len(leaves)
        else:
            count = 0
            for op, sizes in _sections(size, *clauses):
                if len(sizes) == 1:
                    for v, i in firsts[sizes[0]].items():
                        first.setdefault(op(v), count + i)
                    count += counts[sizes[0]]
                else:
                    left, right = sizes
                    rights, width = firsts[right].items(), counts[right]
                    for v, i in firsts[left].items():
                        base = count + i * width
                        for w, j in rights:
                            first.setdefault(op(v, w), base + j)
                    count += counts[left] * width
        counts.append(count)
        firsts.append(first)
        for v, i in first.items():
            if v in seen:
                continue  # it did not hit at a smaller size
            seen.add(v)
            if hit(flags(v)):
                formula = _formula_at(size, i, [Atom(name) for name in names],
                                      *_operators(language), counts)
                return checked + i + 1, flags(v), formula
        checked += count
    return checked, None, None


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

    The scan is ``_first_formula`` over ``a`` and ``b`` (``a`` alone in
    glut mode): it folds the clauses over the distinct value vectors of
    each size and their first positions, and builds no formula but the
    witness.  It is bounded evidence with the count and witness of a
    formula-by-formula scan: ``formulas_checked`` runs up to and including
    the witness.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    _modality(language)
    same = a.model == b.model and a.world == b.world
    names = sorted(a.model.variables | b.model.variables)
    if not names:
        raise ValueError("the models mention no variables")
    started = time.perf_counter()
    if same:
        # A glut at a.
        checked, flags, formula = _first_formula([a], names, language, max_size,
                                                 lambda f: f[0] == (1, 1))
    else:
        # A classical value at b that a does not share; a non-classical
        # value at b constrains nothing.
        checked, flags, formula = _first_formula(
            [a, b], names, language, max_size,
            lambda f: f[1][0] != f[1][1] and f[0] != f[1])
    witness = witness_values = None
    if formula is not None:
        witness = render(formula)
        witness_values = dict(zip("ab", (FourValue.from_flags(*f).name for f in flags)))
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
