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
branching cuts, world-creating rules) returns the first applicable
instance whose major premise is one item, or None.  The search fires the
first instance found, taking the finders in that priority order and each
over the branch in insertion order, which makes it fully deterministic.
Whether an instance applies is read off the branch alone: a linear
instance applies while one of its additions is missing, and a split always
does, since a finder finds a split only when it adds something.
The rules of ``&`` and ``|`` are read off one table, ``_SHARED``, and the
glut/gap uniformity rules and their world-creating forms off another,
``_UNIFORM``.

The search runs on ints, as a SAT solver runs on literals (Eén &
Sörensson, "An Extensible SAT-solver", 2003).  A ``_Table`` numbers each
subformula of the root items once, as ``syntax._number`` numbers them
(children first), and each world label in the order it is first met;
both numberings last for the whole search.  With ``F`` formulas, item
``w: f ; v`` is the code ``((w * F + f) << 2) | v``, where ``v`` is the
position of the label in ``_VAL_ORDER``: so ``code ^ 2`` is its bar,
``code ^ 1`` its negation, and closure is one lookup.  ``w R w'`` is the
negative code ``~(w << 32 | w')``.  The edges run on codes too:
``Branch.from_items`` codes each labelled item by the number ``_number``
gives its formula as a root, and ``prove`` builds its root branch from
its two root items, ``w0: premise`` and ``w0: conclusion`` labelled by
the start mode, so the prover hashes and compares no formula; extraction
and ``check_realisation`` read a code's world, formula and label by
arithmetic.  ``_Table.decode`` is the one place a ``Labelled`` item or a
``RelAtom`` is built, for the items a proof node adds, ``Branch.items``
and serialisation; it decodes each code once, so equal items of one
proof are one object.

The first applicable instance is found from an agenda, not by a scan of
the branch, as a SAT solver visits only the clauses an assignment
watches.  The branch keeps one dirty set of item positions per finder,
and every position where that finder can find an instance is in it.
Each event of an insertion marks one fixed set of finders; an event that
can only disable a rule marks none:

* a ``~`` entry, or an ``&``/``|`` entry, marks its own position for the
  linear rules, and a two-premise one for the cut as well;
* the first label of a ``#``-key marks its own position for the cut;
* a later label of a ``#``-key marks the key's first position for the
  modal and world-creating rules, the two that read label pairs;
* a label ``bar(v)`` on an immediate subformula marks the two-premise
  entries ``v`` whose minor premise it is for the linear rules (it can
  only decide their cut's dimension);
* an argument entry marks the ``#``-keys one step back for the modal
  rules (it can only supply the entry at a successor that their cut
  lacks);
* ``w R w'`` marks the ``#``-keys at ``w`` for the modal rules and the
  cut (``tri_B+`` and ``tri_N+`` need ``w`` to have no successor, and
  ``tri_F`` reads none).

The ``#``-finders read the key's label mask, the world's successors and
the argument's labels, never the entry's own label, so every entry of a
(world, ``#``-formula) key yields the same instances and the scan meets
the first one first: only that entry is on the agenda.  A later label
never marks the cut: while a key has one label its dimension cut
applies, so the key is still on the cut agenda when the second arrives.

``_select`` visits the dirty positions in ascending order, finder by
finder, and drops a position once its finder finds nothing there, so it
fires the instance the full scan would fire.  The search runs on one
branch.  A split takes a checkpoint, which holds the sizes of the branch's
logs and a copy of the four dirty sets, and backtracking undoes the branch
to it: the items added since come off the end of the item list, the
``tri_F`` records off the end of ``fired``, and the dirty sets are
restored from their copy.

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
from typing import Iterable, NamedTuple, Sequence, Union

from .semantics import Model, PointedModel, Evaluator, Frame, model_to_dict
from .syntax import And, Atom, Box, Formula, Not, Or, Sequent, Tri, _number, render

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

# A relational atom's code holds its source above bit 32 and its target
# below, bit-inverted, so that it is negative.
_RBITS = 32
_RMASK = (1 << _RBITS) - 1


class _Table:
    """The numbering one proof search shares among its branch states.

    ``formulas[i]`` and ``nodes[i]`` are the subformula with id ``i`` and
    its node, as ``syntax._number`` numbers the root formulas, children
    before their parents: its syntax class (a ``Box`` gets no rule) and the
    ids of its children (-1 where it has fewer than two).  ``roots`` are
    the ids of the root formulas, in order, and ``size`` is the number of
    subformulas.  No map leads from a formula to its id: an item enters a
    branch coded from its root's id.
    ``names[w]`` is the label of world ``w``, numbered as first met;
    minting extends it.  ``decoded`` holds the one ``Item`` object decoded
    for each code met so far.
    """

    __slots__ = ("formulas", "nodes", "roots", "size", "names", "wids", "decoded")

    def __init__(self, roots: Iterable[Formula]):
        self.formulas, self.nodes, self.roots = _number(*roots)
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

    ``tris`` maps the key of a world and an argument to the position of
    the first ``#``-entry for them, which stands for every entry of that
    key on the agenda; ``tri_at`` lists those first positions by world.
    ``binary`` lists the two-premise ``&``/``|`` entries by the code of
    their minor premise on each immediate subformula.  ``dirty`` holds one
    set of item positions per finder (``_FINDERS``): every position at
    which that finder may find an applicable instance is in it.  ``add``
    marks the positions where a new item lets a finder newly find one (the
    wake rules of the module docstring), ``_select`` drops the ones where
    it finds none.  ``add`` is the one writer of the item stores: ``undo``
    reverses it back to a ``checkpoint``, and ``copy`` replays it.

    A branch is built from codes; ``items`` decodes them, and
    ``from_items`` codes items.
    """

    __slots__ = ("table", "codes", "deps", "vals", "succ", "pred", "worlds", "fired",
                 "fresh", "closing", "decisions", "tris", "tri_at", "binary", "dirty")

    def __init__(self, table: _Table, codes: Iterable[int] = ()):
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
        self.tris: dict[int, int] = {}
        self.tri_at: dict[int, list[int]] = {}
        self.binary: dict[int, list[int]] = {}
        self.dirty: tuple[set[int], ...] = tuple(set() for _ in _FINDERS)
        for code in codes:
            self.add(code)

    @classmethod
    def from_items(cls, items: Iterable[Item]) -> "Branch":
        """A branch of ``items``, with a table numbering their subformulas
        in one walk whose roots are the labelled items' formulas, in order.
        A labelled item is coded by its own root's id, a relational atom by
        its world ids; world labels are numbered in the order the items
        name them."""
        items = list(items)
        table = _Table(item.formula for item in items if isinstance(item, Labelled))
        roots, world, codes = iter(table.roots), table.world, []
        for item in items:
            if isinstance(item, Labelled):
                key = world(item.world) * table.size + next(roots)
                codes.append(key << 2 | _VAL_CODE[item.value])
            else:
                codes.append(~(world(item.source) << _RBITS | world(item.target)))
        return cls(table, codes)

    def copy(self) -> "Branch":
        """An independent branch in the same state, on the same table.  It
        replays the items with their decision sets, so its dirty sets hold
        the original's and any positions ``_select`` has dropped since."""
        b = Branch(self.table)
        for code in self.codes:
            b.add(code, self.deps[code])
        b.fired = dict(self.fired)
        b.fresh = self.fresh
        b.decisions = self.decisions
        return b

    closed = property(lambda self: self.closing is not None)

    @property
    def items(self) -> list[Item]:
        """The items in insertion order."""
        return list(map(self.table.decode, self.codes))

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
            self.worlds.setdefault(w)
            vals = self.vals.get(key, 0)
            self.vals[key] = vals | 1 << v
            if vals >> (v ^ 2) & 1 and self.closing is None:
                self.closing = (code, code ^ 2)
            kind, a, b = table.nodes[f]
            wkey = key - f
            if kind is Tri:
                # One agenda entry per key, its first (see the module
                # docstring for the wake rules).
                if vals:
                    first = self.tris[wkey + a]
                    dirty[1].add(first)
                    dirty[3].add(first)
                else:
                    self.tris[wkey + a] = pos
                    self.tri_at.setdefault(w, []).append(pos)
                    dirty[2].add(pos)
            elif kind is Not:
                dirty[0].add(pos)
            elif kind is And or kind is Or:
                dirty[0].add(pos)
                if not _SHARED[kind] >> v & 1:
                    minor = v ^ 2
                    self.binary.setdefault((wkey + a) << 2 | minor, []).append(pos)
                    self.binary.setdefault((wkey + b) << 2 | minor, []).append(pos)
                    dirty[2].add(pos)
            # The item may be the minor premise of two-premise entries, or
            # the argument of #-keys one step back.
            parents = self.binary.get(code)
            if parents:
                dirty[0].update(parents)
            pred = self.pred.get(w)
            if pred:
                tris = self.tris
                for u in pred:
                    first = tris.get(u * size + f)
                    if first is not None:
                        dirty[1].add(first)
        else:
            rel = ~code
            s, t = rel >> _RBITS, rel & _RMASK
            self.worlds.setdefault(s)
            self.worlds.setdefault(t)
            self.succ.setdefault(s, []).append(t)
            self.pred.setdefault(t, []).append(s)
            at = self.tri_at.get(s)
            if at:
                dirty[1].update(at)
                dirty[2].update(at)
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
            if kind is Tri:
                if not self.vals[key]:
                    del self.tris[key - f + a]
                    self.tri_at[w].pop()
            elif (kind is And or kind is Or) and not _SHARED[kind] >> (code & 3) & 1:
                minor = (code & 3) ^ 2
                self.binary[(key - f + a) << 2 | minor].pop()
                self.binary[(key - f + b) << 2 | minor].pop()
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
_SHARED = {And: 1 << _T | 1 << _FBAR, Or: 1 << _F | 1 << _TBAR}
_RULES = {kind: tuple(f"{name}_{v.value}" for v in _VAL_ORDER)
          for kind, name in ((Not, "not"), (And, "and"), (Or, "or"))}
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


def _linear(b: Branch, code: int) -> tuple | None:
    if code < 0:
        return None
    key, v = code >> 2, code & 3
    table, deps = b.table, b.deps
    f = key % table.size
    kind, x, y = table.nodes[f]
    if kind is Not:
        sub = ((key - f + x) << 2) | v ^ 1
        if sub not in deps:
            return _RULES[Not][v], ((sub,),), (code,), None
    elif kind is And or kind is Or:
        left, right = (key - f + x) << 2 | v, (key - f + y) << 2 | v
        if _SHARED[kind] >> v & 1:
            if left not in deps or right not in deps:
                return _RULES[kind][v], ((left, right),), (code,), None
            return None
        # The minor premise is ``bar(v)`` on one subformula.
        for minor, other in ((left ^ 2, right), (right ^ 2, left)):
            if minor in deps and other not in deps:
                return _RULES[kind][v], ((other,),), (code, minor), None
    return None


def _modal(b: Branch, code: int) -> tuple | None:
    if code < 0:
        return None
    key = code >> 2
    table = b.table
    size = table.size
    w, f = divmod(key, size)
    kind, arg, _ = table.nodes[f]
    succ = b.succ.get(w)
    if kind is not Tri or not succ:
        return None
    vals, deps, base = b.vals, b.deps, key << 2
    mask = vals[key]
    rels = ~(w << _RBITS)     # less a successor: the code of w R it
    if mask & _PROPAGATES == _PROPAGATES:
        mode = (base | _T, base | _FBAR)
        for wj in succ:
            akey = wj * size + arg
            arg_vals = vals.get(akey)
            if arg_vals:
                for v in range(4):
                    if arg_vals >> v & 1 and (akey << 2) | v ^ 3 not in deps:
                        return ("tri_T", (((akey << 2) | v ^ 3,),),
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
                    other = (wj2 * size + arg) << 2
                    if wj2 != wj1 and (other | x not in deps or other | y not in deps):
                        return ("tri_T'", ((other | x, other | y),),
                                mode + (rels - wj1, rels - wj2, (akey << 2) | x,
                                        (akey << 2) | y), None)
    for rule, x, y, pair in _UNIFORM:
        if mask & pair == pair:
            for wj in succ:
                other = (wj * size + arg) << 2
                if other | x not in deps or other | y not in deps:
                    return rule, ((other | x, other | y),), (base | x, base | y, rels - wj), None
    return None


def _cut(key: int, dim: int) -> tuple:
    plain, unsupported = _DIMENSIONS[dim]
    return "cut", (((key << 2) | plain,), ((key << 2) | unsupported,)), (), None


def _cuts(b: Branch, code: int) -> tuple | None:
    if code < 0:
        return None
    key, v = code >> 2, code & 3
    table = b.table
    size = table.size
    f = key % size
    kind, x, y = table.nodes[f]
    vals = b.vals
    if kind is Tri:
        mask = vals[key]
        if mask & _TDIM and not mask & _FDIM:
            return _cut(key, 1)
        if mask & _FDIM and not mask & _TDIM:
            return _cut(key, 0)
        if mask & _PROPAGATES == _PROPAGATES:
            # Propagation needs one entry for the argument at some
            # accessible world: the completion rule then turns it into a
            # classical pair and the uniformity rule floods that pair to
            # every other accessible world, so one cut is enough.
            succ = b.succ.get(key // size)
            if succ and not any(vals.get(wj * size + x) for wj in succ):
                return _cut(succ[0] * size + x, 0)
    elif (kind is And or kind is Or) and not _SHARED[kind] >> v & 1:
        dim = v & 1
        bits = _FDIM if dim else _TDIM
        if not (vals.get(key - f + x, 0) & bits or vals.get(key - f + y, 0) & bits):
            return _cut(key - f + x, dim)
    return None


def _creators(b: Branch, code: int) -> tuple | None:
    if code < 0:
        return None
    key = code >> 2
    table = b.table
    size = table.size
    w, f = divmod(key, size)
    kind, arg, _ = table.nodes[f]
    if kind is not Tri:
        return None
    mask, base = b.vals[key], key << 2
    if not b.succ.get(w):
        for rule, x, y, pair in _UNIFORM:
            if mask & pair == pair:
                (k,), nxt = b.mint(1)
                other = (k * size + arg) << 2
                return (rule + "+", ((~(w << _RBITS | k), other | x, other | y),),
                        (base | x, base | y), nxt)
    if mask & _WITNESSES == _WITNESSES and key not in b.fired:
        (k1, k2), nxt = b.mint(2)
        rels = (~(w << _RBITS | k1), ~(w << _RBITS | k2))
        one, two = (k1 * size + arg) << 2, (k2 * size + arg) << 2
        return ("tri_F", (rels + (one | _T, two | _TBAR), rels + (one | _F, two | _FBAR)),
                (base | _F, base | _TBAR), nxt)
    return None


# Finders in priority order; each returns the first applicable instance
# whose major premise is the item of one code, or None.  Their indices are
# those of ``Branch.dirty``, which ``Branch.add`` marks by the wake rules of
# the module docstring.
_FINDERS = (_linear, _modal, _cuts, _creators)


def _select(b: Branch) -> tuple | None:
    """The first applicable instance, in the order of a full scan: finders
    in priority order, each over the branch in insertion order.  Only the
    dirty positions can hold one, so only they are visited."""
    codes = b.codes
    for finder, dirty in zip(_FINDERS, b.dirty):
        for pos in sorted(dirty):
            inst = finder(b, codes[pos])
            if inst is not None:
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

# The labels of the premise and the conclusion at the root, by start mode.
_STARTS = {"truth": (Val.T, Val.TBAR), "nonfalsity": (Val.FBAR, Val.F)}


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
    if not isinstance(s, Sequent):
        raise TypeError(f"prove takes a Sequent, not {type(s).__name__}")
    if not isinstance(start, str) or start not in _STARTS:
        raise ValueError(f"unknown start mode {start!r}")
    v, u = _STARTS[start]
    branch = Branch.from_items((Labelled("w0", s.premise, v), Labelled("w0", s.conclusion, u)))
    if any(kind is Box for kind, _, _ in branch.table.nodes):
        raise LanguageError("the proof system covers the #-fragment; [] is not supported")
    root = ProofNode(None, tuple(branch.items))
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
    exactly when the branch says so with a ``t`` (``f``) atom entry.  Each
    such entry ORs its world's bit into its variable's pair of support
    bitsets, read straight off ``codes``; every atom of the table starts
    at ``(0, 0)``, and ``Model._of`` builds the model from the pairs.  The
    result is checked against the branch, by the scalar ``Evaluator``, and
    a failure raises RealisationError, since it would mean the calculus
    produced an unrealisable "complete" branch.
    """
    if b.closed:
        raise ValueError("cannot extract a model from a closed branch")
    if not b.worlds:
        raise ValueError("empty branch")
    table = b.table
    names, formulas, nodes = table.names, table.formulas, table.nodes
    worlds = [names[w] for w in b.worlds]
    bit = {w: 1 << i for i, w in enumerate(b.worlds)}
    rel = []
    # The table numbers the subformulas of the items the branch was built
    # from, which never leave it: its atoms are the variables it mentions.
    val = {f.name: (0, 0) for f, node in zip(formulas, nodes) if node[0] is Atom}
    for code in b.codes:
        if code < 0:
            rel.append((names[~code >> _RBITS], names[~code & _RMASK]))
            continue
        w, f = divmod(code >> 2, table.size)
        if code & 3 in (_T, _F) and nodes[f][0] is Atom:
            name = formulas[f].name
            pos, neg = val[name]
            val[name] = (pos | bit[w], neg) if code & 3 == _T else (pos, neg | bit[w])
    model = Model._of(Frame(worlds, rel), val)
    if not check_realisation(model, b):
        raise RealisationError("extracted model does not realise its branch")
    return PointedModel(model, worlds[0])


def check_realisation(m: Model, b: Branch) -> bool:
    """Does ``m`` satisfy every labelled assertion on ``b``?

    ``t``/``f`` entries must be supported, ``tbar``/``fbar`` entries must
    be unsupported, and every world label of the branch must exist in ``m``.
    It walks ``b.codes`` and decodes none: a labelled code's world and
    formula are read by ``divmod``, the support it speaks of (truth or
    falsity) by bit 0 of its label and whether the label is barred by bit 1,
    and the scalar ``Evaluator`` answers for the formula.
    """
    ev = Evaluator(m)
    table = b.table
    names, formulas = table.names, table.formulas
    index, relation = m.frame.index, m.frame.relation
    for code in b.codes:
        if code < 0:
            if (names[~code >> _RBITS], names[~code & _RMASK]) not in relation:
                return False
            continue
        w, f = divmod(code >> 2, table.size)
        if names[w] not in index:
            return False
        if ev.supports(names[w], formulas[f])[code & 1] == code >> 1 & 1:
            return False
    return True


# --- serialization -------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
_PRETTY_VALS = {Val.T: "t", Val.F: "f", Val.TBAR: "t̄", Val.FBAR: "f̄"}


def item_to_text(item: Item, pretty: bool = False) -> str:
    if isinstance(item, RelAtom):
        return f"{item.source} R {item.target}"
    val = _PRETTY_VALS[item.value] if pretty else item.value.value
    return f"{item.world}: {render(item.formula, pretty)} ; {val}"


def tree_to_text(node: ProofNode, pretty: bool = False) -> str:
    """Indented rendering: one item per line, annotated with the rule that
    added it; leaves carry their closed/open status."""
    lines: list[str] = []
    texts: dict[int, str] = {}  # each item's text, by id while the tree holds it
    stack: list[tuple[ProofNode, int]] = [(node, 0)]
    while stack:
        cur, depth = stack.pop()
        label = cur.rule or "root"
        pad = "  " * depth
        for item in cur.added:
            text = texts.get(id(item))
            if text is None:
                text = texts[id(item)] = item_to_text(item, pretty)
            lines.append(f"{pad}{text}   [{label}]")
        if not cur.added:
            lines.append(f"{pad}({label}: nothing new)")
        if cur.status:
            lines.append(f"{pad}*{cur.status}*")
        for child in reversed(cur.children):
            stack.append((child, depth + 1))
    return "\n".join(lines)


def _entries(texts: list[str], level: int, brackets: str) -> str:
    """The encoded entries ``texts`` of an array or object at nesting
    ``level``, between ``brackets``, laid out as ``json.dumps(...,
    indent=2)`` lays them out."""
    if not texts:
        return brackets
    ind = "\n" + "  " * (level + 1)
    return brackets[0] + ind + ("," + ind).join(texts) + ind[:-2] + brackets[1]


def _model_json(m: Model) -> str:
    """``model_to_dict(m)`` encoded at nesting level 1."""
    data = model_to_dict(m)
    rel = ["[\n        " + _encode_str(s) + ",\n        " + _encode_str(t) + "\n      ]"
           for s, t in data["rel"]]
    val = [_encode_str(w) + ": " + _entries([_encode_str(var) + ": " + _encode_str(flag)
                                              for var, flag in row.items()], 3, "{}")
           for w, row in data["val"].items()]
    return _entries(['"worlds": ' + _entries(list(map(_encode_str, data["worlds"])), 2, "[]"),
                     '"rel": ' + _entries(rel, 2, "[]"), '"val": ' + _entries(val, 2, "{}")],
                    1, "{}")


class _Level(NamedTuple):
    """The constant pieces of a proof node opened at one nesting level and
    of the items in its "add" array.  ``iK`` is a newline and the
    indentation of that level plus K."""
    rule: str      # {i1"rule":                  opens the node
    add: str       # ,i1"add": [i2               opens its items
    added: str     # i1],i1"children":           closes them
    no_add: str    # ,i1"add": [],i1"children":  stands for no items
    open: str      # [i2                         opens its children
    sep: str       # ,i2                         separates array entries
    close: str     # i1]                         closes its children
    status: str    # ,i1"status":
    end: str       # i0}                         closes the node
    world: str     # {i3"world":                 opens a labelled item
    formula: str   # ,i3"formula":
    values: dict   # ,i3"value": "t"i2}          closes it, by value
    source: str    # {i3"rel": [i4               opens a relational atom
    target: str    # ,i4
    rel_end: str   # i3]i2}                      closes it

    @classmethod
    def at(cls, level: int) -> "_Level":
        i0, i1, i2, i3, i4 = ("\n" + "  " * (level + k) for k in range(5))
        return cls("{" + i1 + '"rule": ', "," + i1 + '"add": [' + i2,
                   i1 + "]," + i1 + '"children": ', "," + i1 + '"add": [],' + i1 + '"children": ',
                   "[" + i2, "," + i2, i1 + "]", "," + i1 + '"status": ', i0 + "}",
                   "{" + i3 + '"world": ', "," + i3 + '"formula": ',
                   {v: "," + i3 + '"value": ' + _encode_str(v.value) + i2 + "}" for v in Val},
                   "{" + i3 + '"rel": [' + i4, "," + i4, i3 + "]" + i2 + "}")


# The pieces of the node levels (odd) below ``_CACHED_LEVELS``, and of
# level 0 (a refutation's branch), kept for the process and built on first
# use: at most 65 levels, about 330 KB.  ``####p |- ####~p`` opens nodes at
# 73 levels, up to level 145; deeper levels are built for each call.
_CACHED_LEVELS = 128
_LEVELS: dict[int, _Level] = {}


def result_to_json(result: TableauResult) -> str:
    """The result as ``json.dumps(..., indent=2)`` would encode it: an
    object of "verdict", "stats", for a refutation "model", "designated"
    and "branch", and "tree".  A proof node is an object of "rule", "add"
    (its items), "children" and, on a leaf, "status"; an item is
    ``{"world", "formula", "value"}`` or ``{"rel": [source, target]}``.
    It is written straight from the result and its proof nodes into one
    list of pieces, joined once.  The standard encoder takes one generator
    per nesting level, so deep proof trees overflow its stack; this writer
    keeps its own, which holds the nodes still to write and the pieces that
    close each node after its children."""
    out: list[str] = []
    # Memos of this call only: the levels past ``_CACHED_LEVELS``, and each
    # formula's escaped rendering by ``id``, which skips its Python-level
    # hash and is valid while the result holds it.  No ``id``-keyed memo may
    # outlive the call: a later result could reuse a freed formula's id.
    deep: dict[int, _Level] = {}
    formulas: dict[int, str] = {}

    def level(n: int) -> _Level:
        levels = _LEVELS if n < _CACHED_LEVELS else deep
        return levels.get(n) or levels.setdefault(n, _Level.at(n))

    def add(items: Sequence[Item], lv: _Level, opening: str, closing: str):
        """Append ``opening``, the entries of the non-empty ``items`` in an
        array that ``lv`` opens, and ``closing``."""
        out.append(opening)
        for item in items:
            if type(item) is RelAtom:
                out.extend((lv.source, _encode_str(item.source), lv.target,
                            _encode_str(item.target), lv.rel_end, lv.sep))
                continue
            f = formulas.get(id(item.formula))
            if f is None:
                f = formulas[id(item.formula)] = _encode_str(render(item.formula))
            out.extend((lv.world, _encode_str(item.world), lv.formula, f,
                        lv.values[item.value], lv.sep))
        out[-1] = closing

    out.extend(('{\n  "verdict": ', '"proved"' if isinstance(result, Proved) else '"refuted"',
                ',\n  "stats": ',
                _entries([f'"{k}": {v}' for k, v in result.stats.to_dict().items()], 1, "{}")))
    if isinstance(result, Refuted):
        # The branch is an array at level 1 of items at level 2, like the
        # "add" array of a node at level 0.
        out.extend((',\n  "model": ', _model_json(result.model),
                    ',\n  "designated": ', _encode_str(result.world), ',\n  "branch": '))
        lv, items = level(0), result.branch.items
        if items:
            add(items, lv, lv.open, lv.close)
        else:
            out.append("[]")
    out.append(',\n  "tree": ')
    stack: list = [(result.tree, 1)]
    while stack:
        entry = stack.pop()
        if type(entry) is str:
            out.append(entry)
            continue
        node, n = entry
        lv = _LEVELS.get(n) or level(n)
        out.extend((lv.rule, "null" if node.rule is None else _encode_str(node.rule)))
        if node.added:
            add(node.added, lv, lv.add, lv.added)
        else:
            out.append(lv.no_add)
        stack.append(lv.end)
        if node.status:
            stack.extend((_encode_str(node.status), lv.status))
        children = node.children
        if not children:
            stack.append("[]")
            continue
        out.append(lv.open)
        stack.append(lv.close)
        for child in reversed(children[1:]):
            stack.extend(((child, n + 2), lv.sep))
        stack.append((children[0], n + 2))
    out.append("\n}")
    return "".join(out)
