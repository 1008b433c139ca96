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

The search runs on ints, as a SAT solver runs on literals (Eén &
Sörensson, "An Extensible SAT-solver", 2003).  A ``_Table`` numbers each
subformula of the root items once, by its ``postorder`` position, and each
world label in the order it is first met; both numberings last for the
whole search.  With ``F`` formulas, item ``w: f ; v`` is the code
``((w * F + f) << 2) | v``, where ``v`` is the position of the label in
``_VAL_ORDER``: so ``code ^ 2`` is its bar, ``code ^ 1`` its negation, and
closure is one lookup.  ``w R w'`` is the negative code ``~(w << 32 | w')``.
``Labelled`` items, ``RelAtom``s and world labels appear only at the
edges: the items a proof node adds, ``Branch.items``,
``Branch.from_items``, extraction and serialisation.  The table decodes
each code once, so equal items of one proof are one object.

The first applicable candidate is found from an agenda, not by a scan of
the branch.  The branch keeps one dirty set of item positions per finder.
Inserting an item marks the positions whose candidates it can enable: its
own; the ``#``-entries for the same world and formula (their labels
changed); the two-premise ``&``/``|`` entries with it as an immediate
subformula at its world (a minor premise, or a decided dimension); the
``#``-entries with it as argument one step back along the relation; and,
for ``w R w'``, the ``#``-entries at ``w``.  ``_select`` visits the dirty
positions in ascending order, finder by finder, and drops a position once
none of its candidates applies, so it fires the instance the full scan
would fire.  The search runs on one branch.  A split takes a checkpoint,
which holds the sizes of the branch's logs and a copy of the four dirty
sets, and backtracking undoes the branch to it: the items added since
come off the end of the item list, the ``tri_F`` records off the end of
``fired``, and the dirty sets are restored from their copy.

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
records the split decisions it rests on, as a bitmask in ``Branch.deps``,
and when the left alternative of a
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
from .syntax import And, Atom, Formula, Not, Or, Sequent, Tri, postorder, render

__all__ = [
    "Val", "bar", "neg", "Labelled", "RelAtom", "Branch",
    "Proved", "Refuted", "TableauResult", "ProofNode", "ProofStats",
    "LanguageError", "RealisationError",
    "prove", "saturation_step",
    "extract_countermodel", "check_realisation",
    "tree_to_text", "item_to_text",
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


# The order the finders try labels in; a label's position here is its code,
# so that bar is ``^ 2`` and neg is ``^ 1``.
_VAL_ORDER = (Val.T, Val.F, Val.TBAR, Val.FBAR)
_VAL_CODE = {v: i for i, v in enumerate(_VAL_ORDER)}
_T, _F, _TBAR, _FBAR = range(4)


def bar(v: Val) -> Val:
    """Swap a value label with its unsupported counterpart (involution)."""
    return _VAL_ORDER[_VAL_CODE[v] ^ 2]


def neg(v: Val) -> Val:
    """Value label of the negated formula: t<->f, tbar<->fbar."""
    return _VAL_ORDER[_VAL_CODE[v] ^ 1]


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

# Formula kinds in ``_Table.nodes``.  A [] node gets no rule.
_ATOM, _NOT, _AND, _OR, _TRI, _BOX = range(6)
_KINDS = {Atom: _ATOM, Not: _NOT, And: _AND, Or: _OR, Tri: _TRI}
# A relational atom's code holds its source above bit 32 and its target
# below, bit-inverted, so that it is negative.
_RBITS = 32
_RMASK = (1 << _RBITS) - 1


class _Table:
    """The numbering one proof search shares among its branch states.

    ``formulas[i]`` is the subformula with id ``i``, its position in the
    ``postorder`` of the root formulas, so that children come before their
    parents; ``nodes[i]`` is its kind and the ids of its
    children (0 where it has fewer than two), and ``size`` is their number.
    ``names[w]`` is the label of world ``w``, numbered as first met;
    minting extends it.  ``decoded`` holds the one ``Item`` object decoded
    for each code met so far.
    """

    __slots__ = ("formulas", "fids", "nodes", "size", "names", "wids", "decoded")

    def __init__(self, roots: Iterable[Formula]):
        self.formulas = postorder(*roots)
        self.fids = {f: i for i, f in enumerate(self.formulas)}
        self.nodes = []
        for f in self.formulas:
            kids = [self.fids[getattr(f, name)] for name in f._fields]
            self.nodes.append((_KINDS.get(type(f), _BOX), *(kids + [0, 0])[:2]))
        self.size = len(self.formulas)
        self.names: list[str] = []
        self.wids: dict[str, int] = {}
        self.decoded: dict[int, Item] = {}

    def world(self, name: str) -> int:
        """The id of world label ``name``, numbering it if it is new."""
        w = self.wids.get(name)
        if w is None:
            w = self.wids[name] = len(self.names)
            self.names.append(name)
        return w

    def code(self, item: Item) -> int:
        """The code of ``item``; its formula must be numbered already."""
        if isinstance(item, Labelled):
            key = self.world(item.world) * self.size + self.fids[item.formula]
            return key << 2 | _VAL_CODE[item.value]
        return ~(self.world(item.source) << _RBITS | self.world(item.target))

    def encode(self, item: Item) -> int:
        """``code(item)``, with ``item`` as its decoding if it has none yet."""
        code = self.code(item)
        self.decoded.setdefault(code, item)
        return code

    def decode(self, code: int) -> Item:
        item = self.decoded.get(code)
        if item is None:
            if code >= 0:
                w, f = divmod(code >> 2, self.size)
                item = Labelled(self.names[w], self.formulas[f], _VAL_ORDER[code & 3])
            else:
                code_ = ~code
                item = RelAtom(self.names[code_ >> _RBITS], self.names[code_ & _RMASK])
            self.decoded[code] = item
        return item


class Branch:
    """A tableau branch: item set, the ``tri_F`` record and the agenda.

    Every store is keyed by ints from the branch's ``table`` (see the
    module docstring); a key ``w * F + f`` stands for formula ``f`` at world
    ``w``.  ``codes`` is the insertion order that the agenda's positions
    index.  ``deps`` maps the code of each item to its decision set, whose
    bit ``i`` marks split decision ``i``.  ``vals`` maps each key to a
    bitmask of the labels it carries (bit ``v`` for label code ``v``).
    ``succ[w]`` and ``pred[w]`` list the successors and predecessors of
    world ``w`` in insertion order; ``worlds`` is a dict of world ids used
    as an ordered set.

    ``fresh`` is the per-branch counter for minted world labels; each
    alternative of a split starts from its value at the split, so sibling
    branches reuse the same label numbers independently.  ``fired`` holds,
    as an ordered set, the keys of the (world, ``#``-formula) pairs that
    ``tri_F`` has split on: it is the one rule whose precondition still
    holds after it fires.

    ``tris`` lists the positions of the ``#``-entries by the key of their
    world and argument, ``tri_at`` by their world, and ``binary`` the
    two-premise ``&``/``|`` entries by the key of their world and each
    immediate subformula.  ``dirty`` holds one set of item positions per
    finder (``_FINDERS``): every position at which that finder may yield an
    applicable instance is in it.  ``add`` marks the positions a new item
    can enable, ``_select`` drops the ones it finds exhausted.  ``undo``
    takes the branch back to a ``checkpoint``.

    ``items`` decodes ``codes``; ``from_items`` and ``in`` take items too.
    """

    __slots__ = ("table", "codes", "deps", "vals", "succ", "pred", "worlds", "fired",
                 "fresh", "closing", "decisions", "tris", "tri_at", "binary", "dirty")

    def __init__(self, table: _Table, items: Iterable[Item] = ()):
        self.table = table
        self.codes: list[int] = []
        self.deps: dict[int, int] = {}
        self.vals: dict[int, int] = {}
        self.succ: dict[int, list[int]] = {}
        self.pred: dict[int, list[int]] = {}
        self.worlds: dict[int, None] = {}
        self.fired: dict[int, None] = {}
        self.fresh = 1
        self.closing: tuple[int, int] | None = None
        self.decisions = 0
        self.tris: dict[int, list[int]] = {}
        self.tri_at: dict[int, list[int]] = {}
        self.binary: dict[int, list[int]] = {}
        self.dirty: tuple[set[int], ...] = tuple(set() for _ in _FINDERS)
        for item in items:
            self.add(table.encode(item))

    @classmethod
    def from_items(cls, items: Iterable[Item]) -> "Branch":
        """A branch of ``items``, with a table numbering their subformulas."""
        items = list(items)
        return cls(_Table(item.formula for item in items if isinstance(item, Labelled)), items)

    def copy(self) -> "Branch":
        """An independent branch in the same state, on the same table."""
        b = Branch.__new__(Branch)
        b.table = self.table
        b.codes = list(self.codes)
        b.deps = dict(self.deps)
        b.vals = dict(self.vals)
        b.succ = {k: list(v) for k, v in self.succ.items()}
        b.pred = {k: list(v) for k, v in self.pred.items()}
        b.worlds = dict(self.worlds)
        b.fired = dict(self.fired)
        b.fresh = self.fresh
        b.closing = self.closing
        b.decisions = self.decisions
        b.tris = {k: list(v) for k, v in self.tris.items()}
        b.tri_at = {k: list(v) for k, v in self.tri_at.items()}
        b.binary = {k: list(v) for k, v in self.binary.items()}
        b.dirty = tuple(set(d) for d in self.dirty)
        return b

    closed = property(lambda self: self.closing is not None)

    @property
    def items(self) -> list[Item]:
        """The items in insertion order."""
        return list(map(self.table.decode, self.codes))

    def __contains__(self, item: Item) -> bool:
        t = self.table
        if isinstance(item, Labelled):
            known = item.world in t.wids and item.formula in t.fids
        else:
            known = item.source in t.wids and item.target in t.wids
        return known and t.code(item) in self.deps

    def add(self, code: int, dep: int = 0) -> bool:
        """Insert an item resting on decisions ``dep``; False if present."""
        deps = self.deps
        if code in deps:
            return False
        codes = self.codes
        pos = len(codes)
        codes.append(code)
        deps[code] = dep
        dirty = self.dirty
        if code >= 0:
            key, v = code >> 2, code & 3
            table = self.table
            size = table.size
            w, f = divmod(key, size)
            if w not in self.worlds:
                self.worlds[w] = None
            vals = self.vals.get(key, 0)
            self.vals[key] = vals | 1 << v
            if vals >> (v ^ 2) & 1 and self.closing is None:
                self.closing = (code, code ^ 2)
            kind, a, b = table.nodes[f]
            wkey = key - f
            if kind == _TRI:
                # The entry itself, and every entry for the same key: the
                # labels they read have changed.
                same = self.tris.get(wkey + a)
                if same is None:
                    same = self.tris[wkey + a] = []
                same.append(pos)
                at = self.tri_at.get(w)
                if at is None:
                    self.tri_at[w] = [pos]
                else:
                    at.append(pos)
                dirty[1].update(same)
                dirty[2].update(same)
                dirty[3].update(same)
            elif kind == _NOT:
                dirty[0].add(pos)
            elif kind == _AND or kind == _OR:
                if _SHARED[kind] >> v & 1:
                    dirty[0].add(pos)
                else:
                    for sub in (wkey + a, wkey + b):
                        parents = self.binary.get(sub)
                        if parents is None:
                            self.binary[sub] = [pos]
                        else:
                            parents.append(pos)
                    dirty[0].add(pos)
                    dirty[2].add(pos)
            # The item may be the minor premise or a decided subformula of a
            # two-premise entry, or the argument of a #-entry one step back.
            parents = self.binary.get(key)
            if parents:
                dirty[0].update(parents)
                dirty[2].update(parents)
            pred = self.pred.get(w)
            if pred:
                tris = self.tris
                for u in pred:
                    found = tris.get(u * size + f)
                    if found:
                        dirty[1].update(found)
                        dirty[2].update(found)
        else:
            rel = ~code
            s, t = rel >> _RBITS, rel & _RMASK
            for w in (s, t):
                if w not in self.worlds:
                    self.worlds[w] = None
            self.succ.setdefault(s, []).append(t)
            self.pred.setdefault(t, []).append(s)
            at = self.tri_at.get(s)
            if at:
                dirty[1].update(at)
                dirty[2].update(at)
                dirty[3].update(at)
        return True

    def _unadd(self):
        """Reverse the ``add`` of the last item on the branch."""
        code = self.codes.pop()
        del self.deps[code]
        if code >= 0:
            key = code >> 2
            self.vals[key] ^= 1 << (code & 3)
            w, f = divmod(key, self.table.size)
            kind, a, b = self.table.nodes[f]
            if kind == _TRI:
                self.tris[key - f + a].pop()
                self.tri_at[w].pop()
            elif (kind == _AND or kind == _OR) and not _SHARED[kind] >> (code & 3) & 1:
                self.binary[key - f + a].pop()
                self.binary[key - f + b].pop()
        else:
            rel = ~code
            self.succ[rel >> _RBITS].pop()
            self.pred[rel & _RMASK].pop()

    def checkpoint(self) -> tuple:
        return (len(self.codes), len(self.worlds), len(self.fired), self.fresh,
                self.decisions, self.closing, tuple(set(d) for d in self.dirty))

    def undo(self, cp: tuple):
        """Take the branch back to the state ``checkpoint`` returned ``cp``
        in.  Items, worlds and ``tri_F`` records come off the ends of their
        logs; the dirty sets are restored from the copy in ``cp``."""
        ncodes, nworlds, nfired, self.fresh, self.decisions, self.closing, dirty = cp
        for _ in range(len(self.codes) - ncodes):
            self._unadd()
        for _ in range(len(self.worlds) - nworlds):
            self.worlds.popitem()
        for _ in range(len(self.fired) - nfired):
            self.fired.popitem()
        for mine, saved in zip(self.dirty, dirty):
            mine.clear()
            mine.update(saved)

    def mint(self, count: int) -> tuple[list[int], int]:
        """Ids of ``count`` fresh worlds, labelled ``w<n>`` by the first
        counter values whose labels are not on the branch, plus the
        advanced counter value.  It numbers new labels in the table but
        does not change the branch."""
        table, worlds = self.table, self.worlds
        ids, n = [], self.fresh
        while len(ids) < count:
            w = table.world(f"w{n}")
            n += 1
            if w not in worlds:
                ids.append(w)
        return ids, n

    def __len__(self):
        return len(self.codes)


# --- rule instances ----------------------------------------------------------
#
# An instance is a tuple (rule, additions, premises, fresh_after) of codes:
# ``additions`` holds one tuple of codes per resulting branch (one entry = a
# linear rule, two = a branching rule), ``premises`` the items whose
# decisions the additions rest on, and ``fresh_after`` the minting counter
# after the worlds it mints, or None.

# The labels of & and | that pass to both subformulas, as bitmasks of label
# codes, as in ``Branch.vals``.  Every other label ``v`` of a binary
# connective is a two-premise rule: minor premise ``bar(v)`` on one
# subformula, conclusion ``v`` on the other.
_SHARED = {_AND: 1 << _T | 1 << _FBAR, _OR: 1 << _F | 1 << _TBAR}
_RULES = {kind: tuple(f"{name}_{v.value}" for v in _VAL_ORDER)
          for kind, name in ((_NOT, "not"), (_AND, "and"), (_OR, "or"))}
# The value pairs of one dimension, supported label first, by the
# dimension's bit in a label code (t: 0, f: 1), and their masks.
_DIMENSIONS = ((_T, _TBAR), (_F, _FBAR))
_TDIM, _FDIM = 1 << _T | 1 << _TBAR, 1 << _F | 1 << _FBAR
_CLASSICAL_PAIRS = ((_T, _FBAR, 1 << _T | 1 << _FBAR), (_F, _TBAR, 1 << _F | 1 << _TBAR))
# A #-entry true and not false propagates to its successors (tri_T, tri_T');
# one false and not true needs two witnesses (tri_F).
_PROPAGATES, _WITNESSES = _CLASSICAL_PAIRS[0][2], _CLASSICAL_PAIRS[1][2]
# A glut (gap) on a #-entry makes every successor a glut (gap).
_UNIFORM = (("tri_B", _T, _F, 1 << _T | 1 << _F),
            ("tri_N", _TBAR, _FBAR, 1 << _TBAR | 1 << _FBAR))


def _linear(b: Branch, code: int) -> Iterator[tuple]:
    if code < 0:
        return
    key, v = code >> 2, code & 3
    table = b.table
    f = key % table.size
    kind, x, y = table.nodes[f]
    if kind == _NOT:
        yield _RULES[_NOT][v], ((((key - f + x) << 2) | v ^ 1,),), (code,), None
    elif kind == _AND or kind == _OR:
        rule = _RULES[kind][v]
        left, right = (key - f + x) << 2, (key - f + y) << 2
        if _SHARED[kind] >> v & 1:
            yield rule, ((left | v, right | v),), (code,), None
            return
        minor = v ^ 2
        for this, other in ((left, right), (right, left)):
            if this | minor in b.deps:
                yield rule, ((other | v,),), (code, this | minor), None


def _modal(b: Branch, code: int) -> Iterator[tuple]:
    if code < 0:
        return
    key = code >> 2
    table = b.table
    size = table.size
    w, f = divmod(key, size)
    kind, arg, _ = table.nodes[f]
    succ = b.succ.get(w)
    if kind != _TRI or not succ:
        return
    vals, base = b.vals, key << 2
    mask = vals[key]
    rels = ~(w << _RBITS)     # less a successor: the code of w R it
    if mask & _PROPAGATES == _PROPAGATES:
        mode = (base | _T, base | _FBAR)
        for wj in succ:
            akey = wj * size + arg
            arg_vals = vals.get(akey)
            if arg_vals:
                for v in range(4):
                    if arg_vals >> v & 1:
                        yield ("tri_T", (((akey << 2) | v ^ 3,),),
                               mode + (rels - wj, (akey << 2) | v), None)
        for wj1 in succ:
            akey = wj1 * size + arg
            arg_vals = vals.get(akey)
            if not arg_vals:
                continue
            for x, y, pair in _CLASSICAL_PAIRS:
                if arg_vals & pair != pair:
                    continue
                for wj2 in succ:
                    if wj2 != wj1:
                        other = (wj2 * size + arg) << 2
                        yield ("tri_T'", ((other | x, other | y),),
                               mode + (rels - wj1, rels - wj2, (akey << 2) | x,
                                       (akey << 2) | y), None)
    for rule, x, y, pair in _UNIFORM:
        if mask & pair == pair:
            mode = (base | x, base | y)
            for wj in succ:
                other = (wj * size + arg) << 2
                yield rule, ((other | x, other | y),), mode + (rels - wj,), None


def _cut(key: int, dim: int) -> tuple:
    plain, unsupported = _DIMENSIONS[dim]
    return "cut", (((key << 2) | plain,), ((key << 2) | unsupported,)), (), None


def _cuts(b: Branch, code: int) -> Iterator[tuple]:
    if code < 0:
        return
    key, v = code >> 2, code & 3
    table = b.table
    size = table.size
    f = key % size
    kind, x, y = table.nodes[f]
    vals = b.vals
    if kind == _TRI:
        mask = vals[key]
        if mask & _TDIM and not mask & _FDIM:
            yield _cut(key, 1)
        elif mask & _FDIM and not mask & _TDIM:
            yield _cut(key, 0)
        if mask & _PROPAGATES == _PROPAGATES:
            # Propagation needs one entry for the argument at some
            # accessible world: the completion rule then turns it into a
            # classical pair and the uniformity rule floods that pair to
            # every other accessible world, so one cut is enough.
            succ = b.succ.get(key // size)
            if succ and not any(vals.get(wj * size + x) for wj in succ):
                yield _cut(succ[0] * size + x, 0)
    elif (kind == _AND or kind == _OR) and not _SHARED[kind] >> v & 1:
        dim = v & 1
        bits = _FDIM if dim else _TDIM
        if not (vals.get(key - f + x, 0) & bits or vals.get(key - f + y, 0) & bits):
            yield _cut(key - f + x, dim)


def _creators(b: Branch, code: int) -> Iterator[tuple]:
    if code < 0:
        return
    key = code >> 2
    table = b.table
    size = table.size
    w, f = divmod(key, size)
    kind, arg, _ = table.nodes[f]
    if kind != _TRI:
        return
    mask, base = b.vals[key], key << 2
    if not b.succ.get(w):
        for rule, x, y, pair in _UNIFORM:
            if mask & pair == pair:
                (k,), nxt = b.mint(1)
                other = (k * size + arg) << 2
                yield (rule + "+", ((~(w << _RBITS | k), other | x, other | y),),
                       (base | x, base | y), nxt)
    if mask & _WITNESSES == _WITNESSES and key not in b.fired:
        (k1, k2), nxt = b.mint(2)
        rels = (~(w << _RBITS | k1), ~(w << _RBITS | k2))
        one, two = (k1 * size + arg) << 2, (k2 * size + arg) << 2
        yield ("tri_F", (rels + (one | _T, two | _TBAR), rels + (one | _F, two | _FBAR)),
               (base | _F, base | _TBAR), nxt)


# Finders in priority order; each yields the candidate instances one item
# is the major premise of.  Their indices are those of ``Branch.dirty``:
# ``Branch.add`` marks 0 for a linear entry; 0 and 2 for a two-premise entry,
# and for those whose immediate subformula the new entry is; 1 and 2 for the
# #-entries one step back whose argument it is; and 1 to 3 for a #-entry and
# the other entries of its key, and for the #-entries at the source of a new
# relational atom.
_FINDERS = (_linear, _modal, _cuts, _creators)


def _select(b: Branch) -> tuple | None:
    """The first applicable instance, in the order of a full scan: finders
    in priority order, each over the branch in insertion order.  A linear
    instance applies while one of its additions is missing; a yielded split
    always applies.  Only the dirty positions can hold one, so only they
    are visited."""
    codes, deps = b.codes, b.deps
    for finder, dirty in zip(_FINDERS, b.dirty):
        if not dirty:
            continue
        for pos in sorted(dirty):
            for inst in finder(b, codes[pos]):
                additions = inst[1]
                if len(additions) > 1:
                    return inst
                for code in additions[0]:
                    if code not in deps:
                        return inst
            dirty.discard(pos)
    return None


def _apply_to(b: Branch, inst: tuple, additions: tuple[int, ...]) -> list[int]:
    """Add ``additions``, one alternative of ``inst``, to ``b``; the codes
    that were new, in order."""
    rule, alternatives, premises, fresh_after = inst
    if fresh_after is not None:
        b.fresh = fresh_after
    deps = b.deps
    base = 0
    for p in premises:
        base |= deps[p]
    if len(alternatives) > 1:
        if rule == "tri_F":
            # Its precondition outlives it; record it so it splits once.
            b.fired[premises[0] >> 2] = None
        # A branching application is a decision point.  Items common to both
        # alternatives (the relational atoms of the two-witness rule) do not
        # depend on the choice taken.
        decision = b.decisions
        b.decisions += 1
        common = set(alternatives[0]) & set(alternatives[1])
        chosen = base | 1 << decision
        return [code for code in additions if b.add(code, base if code in common else chosen)]
    return [code for code in additions if b.add(code, base)]


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
    for additions in inst[1]:
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
    table = _Table((s.premise, s.conclusion))
    if any(kind == _BOX for kind, _, _ in table.nodes):
        raise LanguageError("the proof system covers the #-fragment; [] is not supported")
    if start == "truth":
        root_items = (Labelled("w0", s.premise, Val.T),
                      Labelled("w0", s.conclusion, Val.TBAR))
    elif start == "nonfalsity":
        root_items = (Labelled("w0", s.premise, Val.FBAR),
                      Labelled("w0", s.conclusion, Val.F))
    else:
        raise ValueError(f"unknown start mode {start!r}")
    branch = Branch(table, root_items)
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
    closes.  Each split takes a checkpoint; backtracking undoes the branch
    to it and applies the right alternative.  A closed subtree reports the
    set of split decisions its refutation depends on.  When the left
    alternative of a split closes without using that split's decision, the
    same refutation covers the right alternative, which is then skipped
    ("pruned"); this only ever skips subtrees in which every branch closes,
    so refutation results and extracted countermodels are unaffected.
    """
    decode = branch.table.decode
    # One frame per split on the current path: the checkpoint before it,
    # the instance, its node, its decision, and None while the left
    # alternative runs, else the conflicts the left one left behind.
    splits: list[tuple] = []
    while True:
        while branch.closing is None:
            inst = _select(branch)
            if inst is None:
                node.status = "open"
                return branch
            stats.rule_applications += 1
            rule, alternatives, _, fresh_after = inst
            if fresh_after is not None:
                stats.worlds_created += fresh_after - branch.fresh
            parent = node
            if len(alternatives) > 1:
                stats.splits += 1
                splits.append((branch.checkpoint(), inst, parent, branch.decisions, None))
            added = _apply_to(branch, inst, alternatives[0])
            node = ProofNode(rule, tuple(map(decode, added)))
            parent.children.append(node)
        node.status = "closed"
        stats.branches_closed += 1
        first, second = branch.closing
        deps = branch.deps[first] | branch.deps[second]
        while True:
            if not splits:
                return None
            cp, inst, parent, decision, conflicts = splits.pop()
            if conflicts is not None:
                deps = conflicts | (deps & ~(1 << decision))
            elif not deps >> decision & 1:
                stats.branches_pruned += 1
                parent.children.append(ProofNode(inst[0], (), status="pruned"))
            else:
                branch.undo(cp)
                splits.append((cp, inst, parent, decision, deps & ~(1 << decision)))
                added = _apply_to(branch, inst, inst[1][1])
                node = ProofNode(inst[0], tuple(map(decode, added)))
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
    table = b.table
    names, formulas = table.names, table.formulas
    worlds = [names[w] for w in b.worlds]
    rel = []
    # The support of truth and of falsity, by the codes of t and f.
    support = ({w: set() for w in worlds}, {w: set() for w in worlds})
    for code in b.codes:
        if code < 0:
            rel.append((names[~code >> _RBITS], names[~code & _RMASK]))
            continue
        w, f = divmod(code >> 2, table.size)
        if code & 3 in (_T, _F) and table.nodes[f][0] == _ATOM:
            support[code & 3][names[w]].add(formulas[f].name)
    # The table numbers the subformulas of the items the branch was built
    # from, which never leave it: its atoms are the variables it mentions.
    mentioned = {f.name for f, node in zip(formulas, table.nodes) if node[0] == _ATOM}
    model = Model(Frame(worlds, rel), *support, variables=mentioned)
    if not check_realisation(model, b):
        raise RealisationError("extracted model does not realise its branch")
    return PointedModel(model, worlds[0])


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
    items: dict[int, str]  # the text of each item it adds, met so far, by id


class _ProofWriter:
    """Encodes one result.  Its memos live as long as the call: the pieces
    of each nesting level, one escaped rendering per formula, and one text
    per item and level.  Formulas and items are keyed by ``id``, which
    skips their Python-level hashes: the result holds every item the
    writer meets, so no other object takes one of those ids meanwhile."""

    def __init__(self):
        self.levels: dict[int, _Level] = {}
        self.formulas: dict[int, str] = {}

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
            text = memo.get(id(item))
            if text is None:
                if type(item) is RelAtom:
                    text = lv.rel % (_encode_str(item.source), _encode_str(item.target))
                else:
                    f = formulas.get(id(item.formula))
                    if f is None:
                        f = formulas[id(item.formula)] = _encode_str(render(item.formula))
                    text = lv.labelled % (_encode_str(item.world), f, _VALUE_JSON[item.value])
                memo[id(item)] = text
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
    """The result as ``json.dumps(..., indent=2)`` would encode it: an
    object of "verdict", "stats", for a refutation "model", "designated"
    and "branch", and "tree".  A proof node is an object of "rule", "add"
    (its items), "children" and, on a leaf, "status"; an item is
    ``{"world", "formula", "value"}`` or ``{"rel": [source, target]}``.
    It is written straight from the result and its proof nodes into one
    list of pieces.  The standard encoder takes one generator per nesting
    level, so deep proof trees overflow its stack; this writer keeps its
    own."""
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
