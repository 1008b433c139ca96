"""Analytic-cut proof search over labelled branches, with countermodel
extraction from complete open branches.

A branch holds labelled formulas ``w: f ; v`` (value labels t, f, tbar,
fbar for supported-true / supported-false / unsupported-true /
unsupported-false) and relational atoms ``w R w'``.  A branch closes when
some formula carries a value label together with its bar.  Gluts and gaps
do not close anything: ``{w:p;t, w:p;f}`` is a consistent description of
``p`` being B.

Rule scheduling: closure is detected on insertion.  One finder per rule
class (non-branching propositional rules, modal propagation rules,
branching cuts, world-creating rules) yields the candidate instances whose
major premise is one item.  The search fires the first candidate that
applies, taking the finders in that priority order and each over the
branch in insertion order, which makes it fully deterministic.  Whether a
candidate applies is read off the branch alone: a linear instance applies
while one of its additions is missing, and a split whenever its finder
yields it, since a finder yields a split only when it adds something.
The rules of ``&`` and ``|`` are read off one table, ``_SHARED``, and the
glut/gap uniformity rules and their world-creating forms off another,
``_UNIFORM``.

That first candidate is found from an agenda, not by a scan of the branch.
The branch keeps one dirty set of item positions per finder.  Inserting
an item marks the positions whose candidates it can enable: its own; the
``#``-entries for the same world and formula (their labels changed); the
two-premise ``&``/``|`` entries with it as an immediate subformula at its
world (a minor premise, or a decided dimension); the ``#``-entries with it
as argument one step back along the relation; and, for ``w R w'``, the
``#``-entries at ``w``.  ``_select`` visits the dirty positions in
ascending order, finder by finder, and drops a position once none of its
candidates applies, so it fires the instance the full scan would fire.
The search runs on one branch: every change goes on a trail, a split
pushes a checkpoint, and backtracking undoes the trail to it (Eén &
Sörensson, "An Extensible SAT-solver", 2003).

Cut discipline (the analytic part): the value-pair cut is applied only

* to a ``#``-entry whose truth dimension (t/tbar) or falsity dimension
  (f/fbar) is still undecided, on the missing dimension;
* to the argument of a true-and-not-false ``#``-entry at an accessible
  world that carries no entry for it yet (the propagation rules need one
  entry to latch onto);
* to an immediate subformula of a two-premise propositional rule's major
  premise when neither subformula is decided in the relevant dimension.

All cut formulas are subformulas of formulas already on the branch, so
finished tableaux satisfy the subformula property.

Termination: every application adds at least one item.  A linear rule
fires only while one of its additions is missing.  A cut needs an
undecided dimension, or an argument with no entry at any successor, and
either alternative supplies what it lacked, so no cut fires twice.
``tri_B+`` and ``tri_N+`` mint a world only at a world with no successor
yet, and ``tri_F`` splits at most once per world and ``#``-formula: its
precondition still holds after it fires, so ``Branch.fired`` records the
pairs it has split on.  World-creating rules only copy the immediate argument of a
``#`` entry into the worlds they mint, so modal nesting depth strictly
decreases along the creation order.  So a branch has finitely many
worlds, each with finitely many labelled subformulas, and is finite.

The search additionally prunes redundant split siblings: every item
records the split decisions it rests on, as a bitmask beside its label in
``vals`` or its successor in ``succ``, and when the left alternative of a
split closes without using that split's decision, the same refutation
covers the right alternative, which is skipped and marked "pruned" in the
tree.  Only subtrees in which every branch closes are ever skipped, so
refutation verdicts, branch order, and extracted countermodels
are exactly those of the unpruned left-first search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .semantics import Model, PointedModel, Evaluator, Frame, model_to_dict
from .syntax import And, Atom, Formula, Not, Or, Sequent, Tri, contains_box, render, variables

__all__ = [
    "Val", "bar", "neg", "Labelled", "RelAtom", "Branch",
    "Proved", "Refuted", "TableauResult", "ProofNode", "ProofStats",
    "LanguageError", "RealisationError",
    "prove", "saturation_step",
    "extract_countermodel", "check_realisation",
    "tree_to_text", "tree_to_dict", "branch_items", "item_to_text",
]


class LanguageError(ValueError):
    """The proof system covers the #-fragment only."""


class RealisationError(RuntimeError):
    """An extracted model failed to realise its own branch; this signals a
    bug in the calculus implementation, not bad user input."""


class Val(Enum):
    T = "t"
    F = "f"
    TBAR = "tbar"
    FBAR = "fbar"

    def __str__(self) -> str:
        return self.value

    # Members are singletons, so identity hashing agrees with equality and
    # skips Enum's Python-level hash of the member name.
    __hash__ = object.__hash__


_BAR = {Val.T: Val.TBAR, Val.TBAR: Val.T, Val.F: Val.FBAR, Val.FBAR: Val.F}
_NEG = {Val.T: Val.F, Val.F: Val.T, Val.TBAR: Val.FBAR, Val.FBAR: Val.TBAR}
_VAL_ORDER = (Val.T, Val.F, Val.TBAR, Val.FBAR)


def bar(v: Val) -> Val:
    """Swap a value label with its unsupported counterpart (involution)."""
    return _BAR[v]


def neg(v: Val) -> Val:
    """Value label of the negated formula: t<->f, tbar<->fbar."""
    return _NEG[v]


@dataclass(frozen=True)
class Labelled:
    world: str
    formula: Formula
    value: Val


@dataclass(frozen=True)
class RelAtom:
    source: str
    target: str


Item = Union[Labelled, RelAtom]


class Branch:
    """A tableau branch: item set, the ``tri_F`` record and the agenda.

    ``items`` is the insertion order that the agenda's positions index.
    Item ``w: f ; v`` is key ``v`` of ``vals[(w, f)]`` and ``w R w'`` is key
    ``w'`` of ``succ[w]``, each mapped to its decision set, whose bit ``i``
    marks split decision ``i``.  ``worlds`` is a dict used as an ordered set.

    ``fresh`` is the per-branch counter for minted world labels; each
    alternative of a split starts from its value at the split, so sibling
    branches reuse the same label numbers independently.  ``fired`` holds
    the (world, ``#``-formula) pairs that ``tri_F`` has split on: it is the
    one rule whose precondition still holds after it fires.

    ``dirty`` holds one set of item positions per finder (``_FINDERS``):
    every position at which that finder may yield an applicable instance
    is in it.  ``add`` marks the positions a new item can enable, ``_select``
    drops the ones it finds exhausted.  ``trail`` logs every change, so that
    ``undo`` can take the branch back to a ``checkpoint``.
    """

    __slots__ = ("items", "vals", "succ", "pred", "worlds", "fired", "fresh",
                 "closing", "decisions", "tris", "tri_at", "binary", "dirty", "trail")

    def __init__(self):
        self.items: list[Item] = []
        self.vals: dict[tuple[str, Formula], dict[Val, int]] = {}
        self.succ: dict[str, dict[str, int]] = {}
        self.pred: dict[str, list[str]] = {}
        self.worlds: dict[str, None] = {}
        self.fired: set[tuple[str, Formula]] = set()
        self.fresh = 1
        self.closing: tuple[Labelled, Labelled] | None = None
        self.decisions = 0
        # Positions of the #-entries by (world, argument) and by world, and
        # of the two-premise &/| entries by (world, immediate subformula).
        self.tris: dict[tuple[str, Formula], list[int]] = {}
        self.tri_at: dict[str, list[int]] = {}
        self.binary: dict[tuple[str, Formula], list[int]] = {}
        self.dirty: tuple[set[int], ...] = tuple(set() for _ in _FINDERS)
        self.trail: list = []

    @classmethod
    def from_items(cls, items: Iterable[Item]) -> "Branch":
        b = cls()
        for item in items:
            b.add(item)
        return b

    def copy(self) -> "Branch":
        """An independent branch in the same state, with an empty trail."""
        b = Branch.__new__(Branch)
        b.items = list(self.items)
        b.vals = {k: dict(v) for k, v in self.vals.items()}
        b.succ = {k: dict(v) for k, v in self.succ.items()}
        b.pred = {k: list(v) for k, v in self.pred.items()}
        b.worlds = dict(self.worlds)
        b.fired = set(self.fired)
        b.fresh = self.fresh
        b.closing = self.closing
        b.decisions = self.decisions
        b.tris = {k: list(v) for k, v in self.tris.items()}
        b.tri_at = {k: list(v) for k, v in self.tri_at.items()}
        b.binary = {k: list(v) for k, v in self.binary.items()}
        b.dirty = tuple(set(d) for d in self.dirty)
        b.trail = []
        return b

    closed = property(lambda self: self.closing is not None)

    def __contains__(self, item: Item) -> bool:
        if isinstance(item, Labelled):
            return item.value in self.vals.get((item.world, item.formula), ())
        return item.target in self.succ.get(item.source, ())

    def dep(self, item: Item) -> int:
        """The decision set of an item on the branch."""
        if isinstance(item, Labelled):
            return self.vals[(item.world, item.formula)][item.value]
        return self.succ[item.source][item.target]

    def _mark(self, finders: tuple[int, ...], positions: Iterable[int]):
        for i in finders:
            dirty = self.dirty[i]
            for pos in positions:
                if pos not in dirty:
                    dirty.add(pos)
                    self.trail.append((_MARK, dirty, pos))

    def add(self, item: Item, dep: int = 0) -> bool:
        """Insert an item resting on decisions ``dep``; False if present."""
        if item in self:
            return False
        pos = len(self.items)
        self.items.append(item)
        self.trail.append(item)
        if isinstance(item, Labelled):
            w, f, v = item.world, item.formula, item.value
            self.worlds.setdefault(w)
            vals = self.vals.setdefault((w, f), {})
            vals[v] = dep
            if self.closing is None and bar(v) in vals:
                self.closing = (item, Labelled(w, f, bar(v)))
            if isinstance(f, Tri):
                # The entry itself, and every entry for the same (w, f): the
                # labels they read have changed.
                same = self.tris.setdefault((w, f.child), [])
                same.append(pos)
                self.tri_at.setdefault(w, []).append(pos)
                self._mark(_TRI_FINDERS, same)
            elif isinstance(f, Not):
                self._mark(_LINEAR, (pos,))
            elif type(f) in _SHARED:
                if v in _SHARED[type(f)]:
                    self._mark(_LINEAR, (pos,))
                else:
                    for sub in (f.left, f.right):
                        self.binary.setdefault((w, sub), []).append(pos)
                    self._mark(_BINARY_FINDERS, (pos,))
            # The item may be the minor premise or a decided subformula of a
            # two-premise entry, or the argument of a #-entry one step back.
            parents = self.binary.get((w, f))
            if parents:
                self._mark(_BINARY_FINDERS, parents)
            for u in self.pred.get(w, ()):
                tris = self.tris.get((u, f))
                if tris:
                    self._mark(_SUCC_FINDERS, tris)
        else:
            s, t = item.source, item.target
            self.worlds.setdefault(s)
            self.worlds.setdefault(t)
            self.succ.setdefault(s, {})[t] = dep
            self.pred.setdefault(t, []).append(s)
            self._mark(_TRI_FINDERS, self.tri_at.get(s, ()))
        return True

    def _unadd(self, item: Item):
        """Reverse ``add(item)``, the last insertion still on the branch."""
        self.items.pop()
        if isinstance(item, Labelled):
            w, f = item.world, item.formula
            del self.vals[(w, f)][item.value]
            if isinstance(f, Tri):
                self.tris[(w, f.child)].pop()
                self.tri_at[w].pop()
            elif type(f) in _SHARED and item.value not in _SHARED[type(f)]:
                self.binary[(w, f.left)].pop()
                self.binary[(w, f.right)].pop()
        else:
            self.succ[item.source].popitem()
            self.pred[item.target].pop()

    def fire(self, pair: tuple[str, Formula]):
        self.fired.add(pair)
        self.trail.append((_FIRE, pair, None))

    def drop(self, finder: int, pos: int):
        self.dirty[finder].discard(pos)
        self.trail.append((_DROP, self.dirty[finder], pos))

    def checkpoint(self) -> tuple:
        return len(self.trail), len(self.worlds), self.fresh, self.decisions, self.closing

    def undo(self, cp: tuple):
        """Take the branch back to the state ``checkpoint`` returned ``cp``
        in; every change since is still on the trail."""
        size, nworlds, self.fresh, self.decisions, self.closing = cp
        trail = self.trail
        while len(trail) > size:
            entry = trail.pop()
            if type(entry) is not tuple:
                self._unadd(entry)
            elif entry[0] is _MARK:
                entry[1].discard(entry[2])
            elif entry[0] is _DROP:
                entry[1].add(entry[2])
            else:
                self.fired.discard(entry[1])
        for _ in range(len(self.worlds) - nworlds):
            self.worlds.popitem()

    def values(self, world: str, f: Formula) -> dict[Val, int]:
        return self.vals.get((world, f), {})

    def successors(self, world: str) -> dict[str, int]:
        return self.succ.get(world, {})

    def mint(self, count: int) -> tuple[list[str], int]:
        """Names for ``count`` fresh worlds plus the advanced counter value;
        does not mutate the branch."""
        names, n = [], self.fresh
        while len(names) < count:
            name = f"w{n}"
            n += 1
            if name not in self.worlds:
                names.append(name)
        return names, n

    def __len__(self):
        return len(self.items)


# --- rule instances ----------------------------------------------------------

class _Instance(NamedTuple):
    rule: str
    # One tuple of items per resulting branch: one entry = linear rule,
    # two entries = branching rule.
    additions: tuple[tuple[Item, ...], ...]
    premises: tuple[Item, ...] = ()
    fresh_after: int | None = None


# The labels of & and | that pass to both subformulas.  Every other label
# ``v`` of a binary connective is a two-premise rule: minor premise
# ``bar(v)`` on one subformula, conclusion ``v`` on the other.
_SHARED = {And: (Val.T, Val.FBAR), Or: (Val.F, Val.TBAR)}
# The value pairs of one dimension, supported label first.
_DIMENSIONS = {"t": (Val.T, Val.TBAR), "f": (Val.F, Val.FBAR)}
_CLASSICAL_PAIRS = ((Val.T, Val.FBAR), (Val.F, Val.TBAR))
# A glut (gap) on a #-entry makes every successor a glut (gap).
_UNIFORM = (("tri_B", (Val.T, Val.F)), ("tri_N", (Val.TBAR, Val.FBAR)))


def _linear(b: Branch, item: Item) -> Iterator[_Instance]:
    if not isinstance(item, Labelled):
        return
    w, f, v = item.world, item.formula, item.value
    if isinstance(f, Not):
        yield _Instance(f"not_{v.value}", ((Labelled(w, f.child, neg(v)),),), (item,))
    elif type(f) in _SHARED:
        rule = f"{type(f).__name__.lower()}_{v.value}"
        if v in _SHARED[type(f)]:
            yield _Instance(rule, ((Labelled(w, f.left, v), Labelled(w, f.right, v)),),
                            (item,))
            return
        minor = bar(v)
        for this, other in ((f.left, f.right), (f.right, f.left)):
            if minor in b.values(w, this):
                yield _Instance(rule, ((Labelled(w, other, v),),),
                                (item, Labelled(w, this, minor)))


def _modal(b: Branch, item: Item) -> Iterator[_Instance]:
    if not (isinstance(item, Labelled) and isinstance(item.formula, Tri)):
        return
    w, tf = item.world, item.formula
    vals, arg = b.values(w, tf), tf.child
    if Val.T in vals and Val.FBAR in vals:
        mode = (Labelled(w, tf, Val.T), Labelled(w, tf, Val.FBAR))
        succ_vals = [(wj, b.values(wj, arg)) for wj in b.successors(w)]
        for wj, arg_vals in succ_vals:
            for v in _VAL_ORDER:
                if v in arg_vals:
                    yield _Instance("tri_T", ((Labelled(wj, arg, neg(bar(v))),),),
                                    mode + (RelAtom(w, wj), Labelled(wj, arg, v)))
        for wj1, arg_vals in succ_vals:
            for x, y in _CLASSICAL_PAIRS:
                if not (x in arg_vals and y in arg_vals):
                    continue
                for wj2 in b.successors(w):
                    if wj2 != wj1:
                        yield _Instance("tri_T'",
                                        ((Labelled(wj2, arg, x), Labelled(wj2, arg, y)),),
                                        mode + (RelAtom(w, wj1), RelAtom(w, wj2),
                                                Labelled(wj1, arg, x), Labelled(wj1, arg, y)))
    for rule, (x, y) in _UNIFORM:
        if x in vals and y in vals:
            mode = (Labelled(w, tf, x), Labelled(w, tf, y))
            for wj in b.successors(w):
                yield _Instance(rule, ((Labelled(wj, arg, x), Labelled(wj, arg, y)),),
                                mode + (RelAtom(w, wj),))


def _cut(w: str, f: Formula, dim: str) -> _Instance:
    plain, unsupported = _DIMENSIONS[dim]
    return _Instance("cut", ((Labelled(w, f, plain),), (Labelled(w, f, unsupported),)))


def _cuts(b: Branch, item: Item) -> Iterator[_Instance]:
    if not isinstance(item, Labelled):
        return
    w, f, v = item.world, item.formula, item.value
    if isinstance(f, Tri):
        vals = b.values(w, f)
        tdim = Val.T in vals or Val.TBAR in vals
        fdim = Val.F in vals or Val.FBAR in vals
        if tdim and not fdim:
            yield _cut(w, f, "f")
        elif fdim and not tdim:
            yield _cut(w, f, "t")
        if Val.T in vals and Val.FBAR in vals:
            # Propagation needs one entry for the argument at some
            # accessible world: the completion rule then turns it into a
            # classical pair and the uniformity rule floods that pair to
            # every other accessible world, so one cut is enough.
            succ = b.successors(w)
            if succ and not any(b.values(wj, f.child) for wj in succ):
                yield _cut(next(iter(succ)), f.child, "t")
    elif type(f) in _SHARED and v not in _SHARED[type(f)]:
        dim = "t" if v in _DIMENSIONS["t"] else "f"
        if not any(x in b.values(w, sub)
                   for sub in (f.left, f.right) for x in _DIMENSIONS[dim]):
            yield _cut(w, f.left, dim)


def _creators(b: Branch, item: Item) -> Iterator[_Instance]:
    if not (isinstance(item, Labelled) and isinstance(item.formula, Tri)):
        return
    w, tf = item.world, item.formula
    vals, arg = b.values(w, tf), tf.child
    for rule, (x, y) in _UNIFORM:
        if x in vals and y in vals and not b.successors(w):
            (k,), nxt = b.mint(1)
            yield _Instance(rule + "+",
                            ((RelAtom(w, k), Labelled(k, arg, x), Labelled(k, arg, y)),),
                            (Labelled(w, tf, x), Labelled(w, tf, y)), nxt)
    if Val.F in vals and Val.TBAR in vals and (w, tf) not in b.fired:
        (k1, k2), nxt = b.mint(2)
        rels = (RelAtom(w, k1), RelAtom(w, k2))
        yield _Instance("tri_F",
                        (rels + (Labelled(k1, arg, Val.T), Labelled(k2, arg, Val.TBAR)),
                         rels + (Labelled(k1, arg, Val.F), Labelled(k2, arg, Val.FBAR))),
                        (Labelled(w, tf, Val.F), Labelled(w, tf, Val.TBAR)), nxt)


# Finders in priority order; each yields the candidate instances one item
# is the major premise of.  The tuples name the finders whose candidates an
# item of a kind can enable (indices into ``_FINDERS`` and ``Branch.dirty``).
_FINDERS = (_linear, _modal, _cuts, _creators)
_LINEAR = (0,)
_BINARY_FINDERS = (0, 2)
_SUCC_FINDERS = (1, 2)
_TRI_FINDERS = (1, 2, 3)
# Trail entry tags; any other trail entry is an item that ``add`` inserted.
_MARK, _DROP, _FIRE = "mark", "drop", "fire"


def _select(b: Branch) -> _Instance | None:
    """The first applicable instance, in the order of a full scan: finders
    in priority order, each over the branch in insertion order.  A linear
    instance applies while one of its additions is missing; a yielded split
    always applies.  Only the dirty positions can hold one, so only they
    are visited."""
    for i, finder in enumerate(_FINDERS):
        for pos in sorted(b.dirty[i]):
            for inst in finder(b, b.items[pos]):
                if len(inst.additions) > 1 or any(item not in b for item in inst.additions[0]):
                    return inst
            b.drop(i, pos)
    return None


def _apply_to(b: Branch, inst: _Instance, additions: tuple[Item, ...]) -> tuple[Item, ...]:
    if inst.fresh_after is not None:
        b.fresh = inst.fresh_after
    base = 0
    for p in inst.premises:
        base |= b.dep(p)
    if len(inst.additions) > 1:
        if inst.rule == "tri_F":
            # Its precondition outlives it; record it so it splits once.
            major = inst.premises[0]
            b.fire((major.world, major.formula))
        # A branching application is a decision point.  Items common to both
        # alternatives (the relational atoms of the two-witness rule) do not
        # depend on the choice taken.
        decision = b.decisions
        b.decisions += 1
        common = set(inst.additions[0]) & set(inst.additions[1])
        chosen = base | 1 << decision
        return tuple(item for item in additions
                     if b.add(item, base if item in common else chosen))
    return tuple(item for item in additions if b.add(item, base))


def saturation_step(b: Branch) -> list[Branch]:
    """Apply the first applicable rule instance to a copy of ``b``.

    Returns one extended branch for linear rules, two for branching ones.
    Raises ValueError if the branch is closed or already complete.
    """
    if b.closed:
        raise ValueError("branch is closed")
    inst = _select(b)
    if inst is None:
        raise ValueError("branch is complete")
    out = []
    for additions in inst.additions:
        child = b.copy()
        _apply_to(child, inst, additions)
        out.append(child)
    return out


# --- proof search ------------------------------------------------------------

@dataclass
class ProofStats:
    rule_applications: int = 0
    splits: int = 0
    branches_closed: int = 0
    branches_pruned: int = 0
    worlds_created: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ProofNode:
    rule: str | None
    added: tuple[Item, ...]
    children: list["ProofNode"] = field(default_factory=list)
    status: str | None = None  # "closed" | "open" on leaves


@dataclass
class Proved:
    tree: ProofNode
    stats: ProofStats


@dataclass
class Refuted:
    branch: Branch
    model: Model
    world: str
    tree: ProofNode
    stats: ProofStats


TableauResult = Union[Proved, Refuted]

def prove(s: Sequent, *, start: str = "truth") -> TableauResult:
    """Run the proof search for ``premise |- conclusion``.

    ``start`` selects the root labelling: ``"truth"`` uses
    ``{w0: premise; t, w0: conclusion; tbar}``; ``"nonfalsity"`` uses the
    contraposed root ``{w0: premise; fbar, w0: conclusion; f}``.  The two
    trees close together.

    Returns ``Proved`` when every branch closes, else ``Refuted`` with the
    first (leftmost) complete open branch, its extracted model, and the
    designated world.
    """
    if contains_box(s.premise) or contains_box(s.conclusion):
        raise LanguageError("the proof system covers the #-fragment; [] is not supported")
    if start == "truth":
        root_items = (Labelled("w0", s.premise, Val.T),
                      Labelled("w0", s.conclusion, Val.TBAR))
    elif start == "nonfalsity":
        root_items = (Labelled("w0", s.premise, Val.FBAR),
                      Labelled("w0", s.conclusion, Val.F))
    else:
        raise ValueError(f"unknown start mode {start!r}")
    branch = Branch.from_items(root_items)
    root = ProofNode(None, root_items)
    stats = ProofStats()
    open_branch = _explore(branch, root, stats)
    if open_branch is None:
        return Proved(root, stats)
    pointed = extract_countermodel(open_branch)
    return Refuted(open_branch, pointed.model, pointed.world, root, stats)


def _explore(branch: Branch, node: ProofNode, stats: ProofStats) -> Branch | None:
    """Depth-first, left branch first, on the one ``branch``.

    Returns the first complete open branch, or None when every branch
    closes.  Each split pushes a checkpoint; backtracking undoes the trail
    to it and applies the right alternative.  A closed subtree reports the
    set of split decisions its refutation depends on.  When the left
    alternative of a split closes without using that split's decision, the
    same refutation covers the right alternative, which is then skipped
    ("pruned"); this only ever skips subtrees in which every branch closes,
    so refutation results and extracted countermodels are unaffected.
    """
    # One frame per split on the current path: the checkpoint before it,
    # the instance, its node, its decision, and None while the left
    # alternative runs, else the conflicts the left one left behind.
    splits: list[tuple] = []
    while True:
        while not branch.closed:
            inst = _select(branch)
            if inst is None:
                node.status = "open"
                return branch
            stats.rule_applications += 1
            if inst.fresh_after is not None:
                stats.worlds_created += inst.fresh_after - branch.fresh
            parent = node
            if len(inst.additions) > 1:
                stats.splits += 1
                splits.append((branch.checkpoint(), inst, parent, branch.decisions, None))
            node = ProofNode(inst.rule, _apply_to(branch, inst, inst.additions[0]))
            parent.children.append(node)
        node.status = "closed"
        stats.branches_closed += 1
        first, second = branch.closing
        deps = branch.dep(first) | branch.dep(second)
        while True:
            if not splits:
                return None
            cp, inst, parent, decision, conflicts = splits.pop()
            if conflicts is not None:
                deps = conflicts | (deps & ~(1 << decision))
            elif not deps >> decision & 1:
                stats.branches_pruned += 1
                parent.children.append(ProofNode(inst.rule, (), status="pruned"))
            else:
                branch.undo(cp)
                splits.append((cp, inst, parent, decision, deps & ~(1 << decision)))
                node = ProofNode(inst.rule, _apply_to(branch, inst, inst.additions[1]))
                parent.children.append(node)
                break


# --- countermodel extraction ---------------------------------------------------

def extract_countermodel(b: Branch) -> PointedModel:
    """Model read off a complete open branch, pointed at its first world.

    Worlds are the labels occurring on the branch; the relation is the set
    of relational atoms; a variable is supported-true (-false) at a world
    exactly when the branch says so with a ``t`` (``f``) atom entry.  The
    result is checked against the branch and a failure raises
    RealisationError, since it would mean the calculus produced an
    unrealisable "complete" branch.
    """
    if b.closed:
        raise ValueError("cannot extract a model from a closed branch")
    if not b.worlds:
        raise ValueError("empty branch")
    rel = [(item.source, item.target) for item in b.items if isinstance(item, RelAtom)]
    frame = Frame(b.worlds, rel)
    vplus: dict[str, set[str]] = {w: set() for w in b.worlds}
    vminus: dict[str, set[str]] = {w: set() for w in b.worlds}
    labelled = [item for item in b.items if isinstance(item, Labelled)]
    for item in labelled:
        if isinstance(item.formula, Atom):
            if item.value is Val.T:
                vplus[item.world].add(item.formula.name)
            elif item.value is Val.F:
                vminus[item.world].add(item.formula.name)
    mentioned = variables(*(item.formula for item in labelled))
    model = Model(frame, vplus, vminus, variables=mentioned)
    if not check_realisation(model, b):
        raise RealisationError("extracted model does not realise its branch")
    return PointedModel(model, next(iter(b.worlds)))


def check_realisation(m: Model, b: Branch) -> bool:
    """Does ``m`` satisfy every labelled assertion on ``b``?

    ``t``/``f`` entries must be supported, ``tbar``/``fbar`` entries must
    be unsupported.  Every world label of the branch must exist in ``m``.
    """
    ev = Evaluator(m)
    for item in b.items:
        if isinstance(item, RelAtom):
            if (item.source, item.target) not in m.frame.relation:
                return False
            continue
        pos, negv = ev.supports(item.world, item.formula)
        ok = {Val.T: pos, Val.F: negv, Val.TBAR: not pos, Val.FBAR: not negv}[item.value]
        if not ok:
            return False
    return True


# --- serialization -------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
_PRETTY_VALS = {Val.T: "t", Val.F: "f", Val.TBAR: "t̄", Val.FBAR: "f̄"}
_VALUE_JSON = {v: _encode_str(v.value) for v in Val}


def item_to_text(item: Item, pretty: bool = False) -> str:
    if isinstance(item, RelAtom):
        return f"{item.source} R {item.target}"
    val = _PRETTY_VALS[item.value] if pretty else item.value.value
    return f"{item.world}: {render(item.formula, pretty)} ; {val}"


def _item_to_dict(item: Item) -> dict:
    if isinstance(item, RelAtom):
        return {"rel": [item.source, item.target]}
    return {"world": item.world, "formula": render(item.formula),
            "value": item.value.value}


def branch_items(b: Branch) -> list[dict]:
    return [_item_to_dict(item) for item in b.items]


def _node_to_dict(node: ProofNode) -> dict:
    enc = {"rule": node.rule, "add": [_item_to_dict(i) for i in node.added],
           "children": []}
    if node.status:
        enc["status"] = node.status
    return enc


def tree_to_dict(node: ProofNode) -> dict:
    root = _node_to_dict(node)
    stack = [(node, root)]
    while stack:
        src, dst = stack.pop()
        for child in src.children:
            enc = _node_to_dict(child)
            dst["children"].append(enc)
            stack.append((child, enc))
    return root


def tree_to_text(node: ProofNode, pretty: bool = False) -> str:
    """Indented rendering: one item per line, annotated with the rule that
    added it; leaves carry their closed/open status."""
    lines: list[str] = []
    stack: list[tuple[ProofNode, int]] = [(node, 0)]
    while stack:
        cur, depth = stack.pop()
        label = cur.rule or "root"
        pad = "  " * depth
        for item in cur.added:
            lines.append(f"{pad}{item_to_text(item, pretty)}   [{label}]")
        if not cur.added:
            lines.append(f"{pad}({label}: nothing new)")
        if cur.status:
            lines.append(f"{pad}*{cur.status}*")
        for child in reversed(cur.children):
            stack.append((child, depth + 1))
    return "\n".join(lines)


def result_to_dict(result: TableauResult) -> dict:
    if isinstance(result, Proved):
        return {"verdict": "proved", "stats": result.stats.to_dict(),
                "tree": tree_to_dict(result.tree)}
    return {"verdict": "refuted", "stats": result.stats.to_dict(),
            "model": model_to_dict(result.model), "designated": result.world,
            "branch": branch_items(result.branch), "tree": tree_to_dict(result.tree)}


def _array(texts: list[str], level: int) -> str:
    """A JSON array at nesting ``level`` of the already encoded ``texts``."""
    if not texts:
        return "[]"
    ind = "\n" + "  " * (level + 1)
    return "[" + ind + ("," + ind).join(texts) + "\n" + "  " * level + "]"


def _object(pairs: list[tuple[str, str]], level: int) -> str:
    """A JSON object at nesting ``level`` of keys and encoded values."""
    if not pairs:
        return "{}"
    ind = "\n" + "  " * (level + 1)
    return ("{" + ind + ("," + ind).join(_encode_str(k) + ": " + v for k, v in pairs)
            + "\n" + "  " * level + "}")


def _json(value, level: int) -> str:
    """``value``, a string, an int, or a dict or list of them, encoded at
    nesting ``level``.  It recurses, so it only takes the result's head,
    whose nesting is fixed and shallow."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return _object([(k, _json(v, level + 1)) for k, v in value.items()], level)
    return _array([_json(v, level + 1) for v in value], level)


class _Level(NamedTuple):
    """The pieces of a proof node opened at one nesting level."""
    head: str       # up to its children, with the rule and the items added
    open: str       # opens its "add" or "children" array
    sep: str        # separates the entries of either array
    close: str      # closes either array
    status: str     # starts its "status" entry
    end: str        # closes the node
    labelled: str   # the template of a labelled item it adds
    rel: str        # the template of a relational atom it adds
    items: dict[Item, str]  # the text of each item it adds, met so far


class _ProofWriter:
    """Encodes one result.  Its memos live as long as the call: the pieces
    of each nesting level, one escaped rendering per distinct formula, and
    one text per item and level."""

    def __init__(self):
        self.levels: dict[int, _Level] = {}
        self.formulas: dict[Formula, str] = {}

    def level(self, level: int) -> _Level:
        found = self.levels.get(level)
        if found is None:
            i0, i1, i2, i3, i4 = ("\n" + "  " * (level + k) for k in range(5))
            found = self.levels[level] = _Level(
                "{" + i1 + '"rule": %s,' + i1 + '"add": %s,' + i1 + '"children": ',
                "[" + i2, "," + i2, i1 + "]", "," + i1 + '"status": ', i0 + "}",
                "{" + i3 + '"world": %s,' + i3 + '"formula": %s,' + i3 + '"value": %s' + i2 + "}",
                "{" + i3 + '"rel": [' + i4 + "%s," + i4 + "%s" + i3 + "]" + i2 + "}",
                {})
        return found

    def items(self, items: Sequence[Item], lv: _Level) -> str:
        """The "add" array of a node at ``lv`` that adds ``items``."""
        if not items:
            return "[]"
        memo, formulas = lv.items, self.formulas
        texts = []
        for item in items:
            text = memo.get(item)
            if text is None:
                if type(item) is RelAtom:
                    text = lv.rel % (_encode_str(item.source), _encode_str(item.target))
                else:
                    f = formulas.get(item.formula)
                    if f is None:
                        f = formulas[item.formula] = _encode_str(render(item.formula))
                    text = lv.labelled % (_encode_str(item.world), f, _VALUE_JSON[item.value])
                memo[item] = text
            texts.append(text)
        return lv.open + lv.sep.join(texts) + lv.close

    def tree(self, root: ProofNode, level: int, out: list[str]):
        """Append the tree at ``root``, opened at ``level``, to ``out``.  The
        stack holds the nodes still to write and the text that closes each
        node after its children."""
        stack: list = [(root, level)]
        while stack:
            entry = stack.pop()
            if type(entry) is str:
                out.append(entry)
                continue
            node, level = entry
            lv = self.level(level)
            rule = "null" if node.rule is None else _encode_str(node.rule)
            out.append(lv.head % (rule, self.items(node.added, lv)))
            end = lv.end
            if node.status:
                end = lv.status + _encode_str(node.status) + end
            children = node.children
            if not children:
                out.append("[]" + end)
                continue
            out.append(lv.open)
            stack.append(lv.close + end)
            sep, level = lv.sep, level + 2
            for child in reversed(children[1:]):
                stack.append((child, level))
                stack.append(sep)
            stack.append((children[0], level))


def result_to_json(result: TableauResult) -> str:
    """``json.dumps(result_to_dict(result), indent=2)``, byte for byte,
    written straight from the result and its proof nodes into one list of
    pieces.  The standard encoder takes one generator per nesting level,
    so deep proof trees overflow its stack; this writer keeps its own."""
    writer = _ProofWriter()
    head = [("verdict", '"proved"' if isinstance(result, Proved) else '"refuted"'),
            ("stats", _json(result.stats.to_dict(), 1))]
    if isinstance(result, Refuted):
        # The branch is an array at level 1 of items at level 2, like the
        # "add" array of a node at level 0.
        head += [("model", _json(model_to_dict(result.model), 1)),
                 ("designated", _encode_str(result.world)),
                 ("branch", writer.items(result.branch.items, writer.level(0)))]
    ind = "\n  "
    out = ["{" + "".join(ind + _encode_str(k) + ": " + v + "," for k, v in head)
           + ind + '"tree": ']
    writer.tree(result.tree, 1, out)
    out.append("\n}")
    return "".join(out)
