"""Bounded brute-force oracles: formula enumeration, countermodel search,
frame-class definability sweeps, and bounded expressivity checks.

The bulk oracles (``find_countermodel``, ``check_definability``) answer for
every *labelled* model up to a world count, in the labelled order: world
count, relation mask, valuation index, then world, each ascending
(``bulkeval`` states the layout).  They sweep one relation per isomorphism
class: their questions are invariant under renaming worlds, and the first
answer in labelled order lies on the smallest mask of its class, so
witnesses and frame counts are those of the labelled scan.  The
countermodel search sweeps only the classes rooted and cut at the
sequent's modal depth, the only ones that can hold a first countermodel
(``bulkeval``'s module docstring gives the argument).
"There is no formula such that ..." claims are checked up to a stated AST
size and reported as bounded evidence, not as proofs.  Those scans fold
the clauses over the distinct value vectors of each formula size and
their first positions in the enumeration order (``_first_formula``),
whose layout ``_sections`` states once for the enumeration, the formula
counts, the fold and the decoder of the witness.  A scan stops folding once
its values are closed under the clauses, as no larger formula has another
value; it still counts every formula up to the stated size, and a closed
scan without a witness finds none at any size.  Two bisimilar points are
answered by partition refinement before any fold (``_bisimilar``): no
formula of either language separates them.  The converse fails: the
``fig6`` points have no separating []-formula, yet are not bisimilar, so
the fold still answers for every other pair.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, starmap
from math import prod
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .bulkeval import (
    _compile, _guard, _integer, _model_on, _relation_list, model_from_indices, sweep,
)
from .semantics import (
    FRAME_PROPERTIES, FourValue, PointedModel, _ClauseMemo, and_clause, atom_clause,
    box_clause, frame_to_dict, model_to_dict, not_clause, or_clause, tri_clause,
)
from .syntax import (
    LANG_BOX, LANG_TRI, And, Atom, Box, Formula, Not, Or, Sequent, Tri,
    parse_formula, parse_sequent, render, render_sequent,
)

__all__ = [
    "model_from_indices", "enumerate_formulas", "find_countermodel",
    "DefinabilityReport", "check_definability", "PAPER_FRAME_CLASSES",
    "IndistinguishabilityReport", "check_indistinguishability",
    "Claim", "claims_from_text",
]

# A definability claim is either sequent validity or formula validity.
Claim = Union[Sequent, Formula]


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
    # several sizes: one call per distinct value, through the bound
    # ``__getitem__`` of ``semantics._ClauseMemo``, the Evaluator's memo too.
    return (not_clause, _ClauseMemo(modal_clause, succ).__getitem__), (and_clause, or_clause)


@lru_cache(maxsize=32)
def _counts(language: str, leaves: int, max_size: int) -> tuple[int, ...]:
    """The number of formulas of each size (index 0 holds 0) in
    ``enumerate_formulas(language, vars, max_size)`` over ``leaves``
    variables: the sums over the sections of ``_sections``, in closed form.

    With ``u`` unary and ``b`` binary ops, the counts c(n) have the
    generating function C = leaves x + u x C + b x C^2.  So R = 2 b x C +
    u x - 1 squares to D = (1 - u x)^2 - 4 b leaves x^2, and 2 D R' = D' R,
    read coefficient by coefficient, is

        (n + 1) c(n) = (2n - 1) u c(n - 1) + (4 b leaves - u^2) (n - 2) c(n - 2),

    the Motzkin numbers' recurrence when u = b = leaves = 1.  It takes two
    products per size, where the sums take one per pair of operand sizes.
    Every scan of one language, variable count and bound reads the same
    counts, so they are kept per process."""
    u, b = map(len, _operators(language))
    counts = [0, leaves]
    for n in range(2, max_size + 1):
        counts.append(((2 * n - 1) * u * counts[n - 1]
                       + (4 * b * leaves - u * u) * (n - 2) * counts[n - 2]) // (n + 1))
    return tuple(counts)


def enumerate_formulas(language: str, vars: Sequence[str],
                       max_size: int) -> Iterator[Formula]:
    """All formulas of the tagged language over ``vars`` with at most
    ``max_size`` AST nodes; duplicate-free, ordered by size and within a
    size by ``_sections``."""
    max_size = _integer(max_size, "max_size")
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

    Only the classes rooted and cut at the sequent's modal depth (``#``
    and ``[]`` counted) are swept, the only ones that can hold the first
    countermodel, as ``bulkeval``'s module docstring argues; at depth 0
    that is the loopless world alone.

    The sequent is compiled once (``bulkeval._compile``); the sweep of
    each world count runs that program, and its variables and modal depth
    are read off it.  The witness's frame is the one its sweep's relation
    record keeps for that relation (``BulkSpace.frame``).
    """
    program = _compile(s)
    _guard(max_worlds, len(program.names))
    for n in range(1, max_worlds + 1):
        space = sweep(n, program.names, program.depth)
        hit = space.first_countermodel(program)
        if hit is not None:
            r, v, w = hit
            frame = space.frame(r)
            return PointedModel(_model_on(frame, program.names, v), frame.worlds[w])
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
    on one relation per isomorphism class, the relation record the sweep
    itself reads, built once per process (``_relation_list``).  The
    property's side is that record's vector of the ``FRAME_PROPERTIES``
    predicate (``holds``), built the first time a check asks for it and
    kept with the record, so repeated checks in one process reuse it; the
    first disagreement is one array comparison, and no ``Frame`` is built
    but the witness's, which the record keeps (``frame``).  Verdict
    "defines" means no disagreement was found; "refuted" carries the first
    disagreeing frame in labelled enumeration order, which is the smallest
    of its class, and the direction of the disagreement.  ``frames_checked`` counts the labelled frames up to and
    including the witness.  An unknown property or a sweep beyond the size
    guard is refused before anything is swept.  Each claim is compiled once
    (``bulkeval._compile``), and the sweep of each world count answers for
    all its relations in one vector (``valid_per_relation``).
    """
    claims = tuple(claims)
    if not claims:
        raise ValueError("need at least one claim")
    programs = [_compile(claim) for claim in claims]
    for program in programs:
        _guard(max_size, len(program.names))
    if prop not in FRAME_PROPERTIES:
        raise ValueError(f"unknown frame property {prop!r}")
    predicate = FRAME_PROPERTIES[prop]
    started = time.perf_counter()
    frames_checked = 0
    witness = None
    for n in range(1, max_size + 1):
        relations = _relation_list(n, None)
        valid = np.ones(len(relations.masks), dtype=bool)
        for program in programs:
            valid &= sweep(n, program.names).valid_per_relation(program)
        has = relations.holds(predicate)
        wrong = np.flatnonzero(has != valid)
        if len(wrong):
            r = int(wrong[0])
            direction = ("property_holds_but_claims_fail" if has[r]
                         else "claims_hold_but_property_fails")
            witness = {"frame": frame_to_dict(relations.frame(r)), "direction": direction}
            frames_checked += int(relations.masks[r]) + 1
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
        # The fields in their order: the dataclass's __init__ sets them so.
        return vars(self).copy()


def _closed_rows(seen: dict[tuple[int, int], int], rows: int, size: int,
                 binary: Sequence[Callable]) -> int:
    """The number of rows of ``seen`` that are closed, after a fold up to
    ``size`` nodes that added no value and where the first ``rows`` are
    known to be: all of them iff ``seen`` is closed under the clauses.

    ``seen`` maps each value, in the order they entered, to the size it
    entered at.  The fold has met the unary images of every value, and the
    binary images of every pair of values whose sizes sum to less than
    ``size``.  A value's row is its image under each ``binary`` clause with
    itself and each earlier value, either way round, for the pairs the fold
    has not met.  ``seen`` only grows, so a closed row stays closed, and a
    later check resumes at the row that failed.
    """
    values, entered = list(seen), list(seen.values())
    for k in range(rows, len(values)):
        v = values[k]
        for w in values[bisect_left(entered, size - seen[v], 0, k + 1):k + 1]:
            for op in binary:
                if op(v, w) not in seen or op(w, v) not in seen:
                    return k
    return len(values)


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

    The values of all formulas are the closure of the leaves' values under
    the clauses.  A size that adds no value can still be followed by one
    that does, so after such a size, short of ``max_size``, the fold checks
    whether the values seen are closed (``_closed_rows``).  Once they are,
    no larger formula has a new value, so none hits, and the fold stops:
    the remaining sizes add only their counts (``_counts``), so
    ``formulas_checked`` still counts every formula up to ``max_size``, and
    a closed scan without a hit holds at every size.
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
    counts = _counts(language, len(names), max_size)
    firsts: list[dict] = [{}]                # each size's values -> first position
    seen: dict[tuple[int, int], int] = {}    # each value met -> the size it was first met at
    rows = 0                                 # the values of seen whose rows are closed
    checked = 0
    for size in range(1, max_size + 1):
        first: dict[tuple[int, int], int] = {}
        if size == 1:
            for i, v in enumerate(leaves):
                first.setdefault(v, i)
        else:
            start = 0                        # the first position of the section
            for op, sizes in _sections(size, *clauses):
                if len(sizes) == 1:
                    for v, i in firsts[sizes[0]].items():
                        first.setdefault(op(v), start + i)
                    start += counts[sizes[0]]
                else:
                    left, right = sizes
                    rights, width = firsts[right].items(), counts[right]
                    for v, i in firsts[left].items():
                        base = start + i * width
                        for w, j in rights:
                            first.setdefault(op(v, w), base + j)
                    start += counts[left] * width
        firsts.append(first)
        before = len(seen)
        for v, i in first.items():
            if v in seen:
                continue  # it did not hit at a smaller size
            seen[v] = size
            if hit(flags(v)):
                formula = _formula_at(size, i, [Atom(name) for name in names],
                                      *_operators(language), counts)
                return checked + i + 1, flags(v), formula
        checked += counts[size]
        if len(seen) == before and size < max_size:
            rows = _closed_rows(seen, rows, size, clauses[1])
            if rows == len(seen):
                # Every larger formula has a value of seen, which did not hit.
                return checked + sum(counts[size + 1:]), None, None
    return checked, None, None


def _bisimilar(a: PointedModel, b: PointedModel, names: Sequence[str], rounds: int) -> bool:
    """Whether ``a`` and ``b`` are ``rounds``-bisimilar, by naive partition
    refinement on the disjoint union of their models (Paige & Tarjan,
    1987); if so, no formula of either language of modal depth ``rounds``
    or less takes different values at them.  Blocks are world bitsets on
    the union, ``a``'s model first, as in ``_first_formula``.  The first
    blocks group the worlds by both supports of every variable of
    ``names``, N where a model lacks it, as the fold's leaves do.  Each
    round splits every block by the predecessors of each block of the
    round before, which groups the worlds by (block, set of successor
    blocks); a block's predecessors are the union of its worlds'
    predecessor bitsets, built once per call.  Both modal clauses read
    only the set of values a formula takes on the successors, so worlds
    that share a block after k rounds agree on every formula of modal
    depth k or less, and worlds of one stable partition (bisimilar
    worlds) on every formula.  False as soon as the points part: at the
    first support on which they differ, or at the first block of a round
    that one point reaches and the other does not, as its predecessors
    are built, before the next round splits the other worlds."""
    ma, mb = a.model, b.model
    shift = len(ma.frame.worlds)
    x, y = ma.frame.index[a.world], shift + mb.frame.index[b.world]
    splitters = []
    for v in names:
        (p, n), (q, m) = atom_clause(ma, v), atom_clause(mb, v)
        p |= q << shift
        n |= m << shift
        if (p >> x ^ p >> y | n >> x ^ n >> y) & 1:
            return False
        splitters += p, n
    succ = ma.frame.succ + tuple(s << shift for s in mb.frame.succ)
    pred = dict.fromkeys((1 << j for j in range(len(succ))), 0)  # by the world's bit
    for i, s in enumerate(succ):
        while s:
            low = s & -s
            pred[low] |= 1 << i
            s ^= low
    blocks, count = [(1 << len(succ)) - 1], 0
    for _ in range(rounds):
        for by in splitters:
            blocks = [part for block in blocks for part in (block & by, block & ~by) if part]
        if len(blocks) == count:
            break  # stable: no later round splits a block
        count = len(blocks)
        splitters = []
        for block in blocks:
            by = 0
            while block:
                low = block & -block
                by |= pred[low]
                block ^= low
            if (by >> x ^ by >> y) & 1:
                return False  # one point reaches the block, the other does not
            splitters.append(by)
    return True


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
    the witness, or over every formula up to ``max_size``.  The scan stops
    folding once the values it has seen are closed under the clauses; a
    closed scan without a witness would find none at any size.

    In transfer mode, points that are (``max_size`` - 1)-bisimilar are
    answered by partition refinement before any fold (``_bisimilar``): a
    formula of at most ``max_size`` nodes has modal depth below
    ``max_size``, so it takes one value at both points, and the report is
    the fold's, with no witness and every formula counted.  The converse
    fails: ``fig6_single`` and ``fig6_pair`` are not bisimilar, yet no
    []-formula separates them, so every other pair is folded.
    """
    max_size = _integer(max_size, "max_size")
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
    elif _bisimilar(a, b, names, max_size - 1):
        # Every formula of at most max_size nodes, of modal depth below
        # max_size, takes one value at both points: none separates them.
        checked, flags, formula = sum(_counts(language, len(names), max_size)), None, None
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
