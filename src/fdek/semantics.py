"""Four-valued Kripke models and their two support relations.

A model carries two valuations per variable: support of truth and support
of falsity, each stored as the bitset of the worlds that give it
(``Model.val``).  The two are independent, so a formula at a world has one
of four values: T (true, not false), B (both), N (neither), F (false, not
true).

Truth/falsity clauses for the modality ``#f`` at ``w`` over the accessible
set ``R(w)``:

* supported-true  iff (a) any two accessible worlds agree on both supports
  of ``f``, and (b) every accessible world supports ``f``'s truth or its
  falsity;
* supported-false iff two accessible worlds disagree on support of truth,
  or disagree on support of falsity, or one supports truth while one
  supports falsity.

In particular ``#f`` is T at a dead end (no accessible world), and it is B
(resp. N) when ``f`` is B (resp. N) in every accessible world of a
nonempty ``R(w)``.

``[]f`` is supported-true iff every accessible world supports ``f``'s
truth, and supported-false iff some accessible world supports its falsity.

The scalar ``Evaluator`` applies the clauses on one model in one walk over
an explicit stack, with a memo of each subformula's two supports; it takes
a run of prefix nodes (``~``, ``#``, ``[]``) as one unit, walked down and
back up in one loop each, and each node of the run still probes and fills
the memo once.

A model crosses the JSON interchange in one pass each way:
``model_from_dict`` checks the JSON shape and sets each letter's support
bits with one table lookup, the ``Frame`` checks each relation entry once,
as it collects the pairs, and each world as it builds ``index``, and
``model_to_dict`` reads ``rel`` off ``succ`` and each letter off a
four-entry table.  Every model fdek builds itself (a loaded model, one
from ``Model.from_values``, a dual, a sweep's witness, a tableau
countermodel) is made from its support bitsets by the one builder
``Model._of``; ``Model(frame, vplus, vminus)``, ``from_values`` and the
``Frame`` decode what a caller writes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from enum import Enum

from .syntax import ATOM_RE, And, Atom, Box, Formula, Not, Or, Sequent, Tri

__all__ = [
    "FourValue", "Frame", "Model", "PointedModel",
    "ModelError", "UnknownWorldError", "BoundExceededError",
    "eval_formula", "sequent_holds",
    "dual_model", "frame_property", "FRAME_PROPERTIES",
    "model_to_dict", "model_from_dict", "frame_from_dict", "frame_to_dict",
    "VALUE_ORDER", "Evaluator",
]


class ModelError(ValueError):
    """Invalid frame/model data."""


class UnknownWorldError(ModelError):
    """A world identifier that does not belong to the frame."""


class BoundExceededError(RuntimeError):
    """An exhaustive check was refused because its model space is beyond the
    limits of ``bulkeval._guard``.  Raised before anything is allocated,
    instead of returning a (necessarily wrong) boolean."""


class FourValue(Enum):
    T = (True, False)
    B = (True, True)
    N = (False, False)
    F = (False, True)

    @property
    def supports_truth(self) -> bool:
        return self.value[0]

    @property
    def supports_falsity(self) -> bool:
        return self.value[1]

    @classmethod
    def from_flags(cls, truth: bool, falsity: bool) -> "FourValue":
        return _FLAGS[(bool(truth), bool(falsity))]

    def __str__(self) -> str:
        return self.name


_FLAGS = {v.value: v for v in FourValue}

# Canonical enumeration order for valuations.
VALUE_ORDER = (FourValue.T, FourValue.B, FourValue.N, FourValue.F)


@dataclass(frozen=True)
class Frame:
    """Worlds and a relation.  The constructor also builds, once, ``index``
    (world to position) and the successor bitsets ``succ`` (bit ``j`` of
    ``succ[i]``: ``worlds[j]`` is accessible from ``worlds[i]``), which
    models, both evaluators, the frame properties and ``frame_to_dict``
    read; equality and hashing use the two fields only.  It checks each
    relation entry as it collects the pairs, then each world as it builds
    ``index``, and raises for the first fault in this order, each kind in
    input order: an entry that is not a tuple or list of two strings, no
    world, a bad world identifier, duplicate worlds, an entry naming an
    unknown world.  The JSON loaders add only JSON's own checks before
    it, so a frame from a file or from code reports the same fault."""
    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __init__(self, worlds: Iterable[str], relation: Iterable[tuple[str, str]]):
        pairs = []
        for entry in relation:
            # A tuple or list only: a string or a mapping of two unpacks too.
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                    and isinstance(entry[0], str) and isinstance(entry[1], str)):
                raise ModelError(f"bad relation entry {entry!r}")
            pairs.append(tuple(entry))
        worlds = tuple(worlds)
        if not worlds:
            raise ModelError("a frame needs at least one world")
        index: dict[str, int] = {}
        for i, w in enumerate(worlds):
            # Checked before it is hashed: a list would raise TypeError.
            if not isinstance(w, str) or not w:
                raise ModelError(f"bad world identifier {w!r}")
            index[w] = i
        if len(index) != len(worlds):
            raise ModelError("duplicate world identifiers")
        succ = [0] * len(worlds)
        try:
            for s, t in pairs:
                succ[index[s]] |= 1 << index[t]
        except KeyError:
            raise UnknownWorldError(f"relation uses unknown world in {(s, t)!r}") from None
        vars(self).update(worlds=worlds, relation=frozenset(pairs), index=index, succ=tuple(succ))

    def successors(self, world: str) -> tuple[str, ...]:
        """Accessible worlds, in frame world order."""
        if world not in self.index:
            raise UnknownWorldError(f"unknown world {world!r}")
        bits = self.succ[self.index[world]]
        return tuple(t for j, t in enumerate(self.worlds) if bits >> j & 1)


def _is_collection(names) -> bool:
    """Whether ``names`` can be read as a collection of names: an iterable,
    and not a string, which would be read as its letters, nor a mapping,
    which would be read as its keys and its values dropped."""
    return not isinstance(names, (str, Mapping)) and hasattr(names, "__iter__")


class Model:
    """A frame plus the two valuations, total on worlds.

    ``val`` maps each variable of the universe to its two supports
    ``(pos, neg)``, world bitsets in Python ints (bit ``i``:
    ``frame.worlds[i]``), built once by the constructor, as a ``Frame``
    builds ``succ``; every evaluator reads them.  The universe,
    ``variables``, is by default the set of variables either valuation
    mentions.  Passing it explicitly makes the dual-model construction an
    involution even when a variable is B or N everywhere.
    """

    __slots__ = ("frame", "val")

    def __init__(self, frame: Frame,
                 vplus: Mapping[str, Iterable[str]] | None = None,
                 vminus: Mapping[str, Iterable[str]] | None = None,
                 variables: Iterable[str] | None = None):
        val: dict[str, list[int]] = {}
        for k, valuation in enumerate((vplus, vminus)):
            for world, names in (valuation or {}).items():
                i = frame.index.get(world)
                if i is None:
                    raise UnknownWorldError(f"valuation uses unknown world {world!r}")
                if not _is_collection(names):
                    raise ModelError(f"bad valuation entry {names!r} for {world!r}")
                for name in names:
                    try:
                        val.setdefault(name, [0, 0])[k] |= 1 << i
                    except TypeError:   # unhashable, so not a string
                        raise ModelError(f"bad variable name {name!r}") from None
        self._store(frame, {name: tuple(pair) for name, pair in val.items()}, variables)

    @classmethod
    def _of(cls, frame: Frame, val: dict[str, tuple[int, int]],
            variables: Iterable[str] | None = None) -> "Model":
        """The one builder of a model from support bitsets, ``val`` (which
        the model keeps) plus ``variables``: ``from_values``,
        ``model_from_dict``, ``dual_model``, the sweeps' witnesses and the
        tableau's countermodels all come from it."""
        model = cls.__new__(cls)
        model._store(frame, val, variables)
        return model

    def _store(self, frame: Frame, val: dict[str, tuple[int, int]], variables):
        """The core of ``__init__`` and ``_of``: ``val`` gives the two
        supports of each variable mentioned, ``variables`` any more of the
        universe."""
        if variables is not None and not _is_collection(variables):
            raise ModelError(f"bad variable list {variables!r}")
        for name in () if variables is None else variables:
            try:
                val.setdefault(name, (0, 0))
            except TypeError:   # unhashable, so not a string
                raise ModelError(f"bad variable name {name!r}") from None
        for name in val:
            # Checked before it is matched, as ``Frame`` checks a world.
            if not isinstance(name, str) or not ATOM_RE.fullmatch(name):
                raise ModelError(f"bad variable name {name!r}")
        self.frame = frame
        self.val = val

    @classmethod
    def from_values(cls, frame: Frame,
                    values: Mapping[str, Mapping[str, "FourValue | str"]],
                    variables: Iterable[str] | None = None) -> "Model":
        """Build a model from per-world assignments, each value a
        ``FourValue`` or its letter; any other value is refused as
        ``model_from_dict`` refuses it."""
        val: dict[str, tuple[int, int]] = {}
        for world, assignment in values.items():
            i = frame.index.get(world)
            if i is None:
                raise UnknownWorldError(f"valuation uses unknown world {world!r}")
            try:
                items = assignment.items()
            except AttributeError:   # not a mapping
                raise ModelError(f"bad valuation entry {assignment!r} for {world!r}") from None
            for var, v in items:
                truth, falsity = v.value if isinstance(v, FourValue) else _letter(v, var, world)
                pos, neg = val.get(var, (0, 0))
                val[var] = pos | truth << i, neg | falsity << i
        return cls._of(frame, val, variables)

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(self.val)

    def value(self, world: str, var: str) -> FourValue:
        i = self.frame.index.get(world)
        if i is None:
            raise UnknownWorldError(f"unknown world {world!r}")
        pos, neg = self.val.get(var, (0, 0))
        return _FLAGS[pos >> i & 1, neg >> i & 1]

    def successors(self, world: str) -> tuple[str, ...]:
        return self.frame.successors(world)

    def __eq__(self, other):
        return isinstance(other, Model) and self.frame == other.frame and self.val == other.val

    def __repr__(self):
        return f"Model({self.frame!r}, val={self.val!r})"


@dataclass(frozen=True)
class PointedModel:
    model: Model
    world: str

    def __post_init__(self):
        if self.world not in self.model.frame.index:
            raise UnknownWorldError(f"unknown world {self.world!r}")


# --- the clauses --------------------------------------------------------------
#
# Each clause of the module docstring, once, on a formula's two supports as
# world bitsets in Python ints, a pair ``(pos, neg)`` (bit ``i``: the
# ``i``-th world).  The modal clauses also take the frame's successor
# bitsets ``succ`` (``Frame.succ``, or those of a disjoint union).

def atom_clause(m: Model, name: str) -> tuple[int, int]:
    """The two supports of the variable ``name`` on ``m``."""
    return m.val.get(name, (0, 0))


def not_clause(v: tuple[int, int]) -> tuple[int, int]:
    return v[1], v[0]


def and_clause(left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int]:
    return left[0] & right[0], left[1] | right[1]


def or_clause(left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int]:
    return left[0] | right[0], left[1] & right[1]


def tri_clause(v: tuple[int, int], succ: tuple[int, ...]) -> tuple[int, int]:
    pos, neg = v
    true = false = 0
    for i, s in enumerate(succ):
        any_p, all_p = pos & s != 0, pos & s == s
        any_n, all_n = neg & s != 0, neg & s == s
        agree = (all_p or not any_p) and (all_n or not any_n)
        valued = (pos | neg) & s == s
        true |= (agree and valued) << i
        false |= ((any_p and not all_p) or (any_n and not all_n) or (any_p and any_n)) << i
    return true, false


def box_clause(v: tuple[int, int], succ: tuple[int, ...]) -> tuple[int, int]:
    pos, neg = v
    return (sum((pos & s == s) << i for i, s in enumerate(succ)),
            sum((neg & s != 0) << i for i, s in enumerate(succ)))


class _ClauseMemo(dict):
    """A modal clause on one model's successor bitsets, memoised: each
    value's image, computed on its first lookup.  The one memo of both
    scalar engines: the ``Evaluator`` keeps one per modality, and each
    expressivity scan of ``analysis`` one for its language's modality."""

    __slots__ = ("clause", "succ")

    def __init__(self, clause: Callable, succ: tuple[int, ...]):
        self.clause, self.succ = clause, succ

    def __missing__(self, v: tuple[int, int]) -> tuple[int, int]:
        image = self[v] = self.clause(v, self.succ)
        return image


_NODES = frozenset({Atom, Not, And, Or, Tri, Box})
_PREFIX_NODES = frozenset({Not, Tri, Box})
# Pushed between a binary node and its operands: when it comes off the
# stack, the operands' pairs are on top of the value stack and the node is
# next.
_UP = object()
# Pushed over a run of prefix nodes that ends on a binary node: when it
# comes off the stack, the binary node's pair is on top of the value stack
# and the run is next.
_RUN = object()


class Evaluator:
    """Memoized evaluation of the two support relations on one model.

    The memo maps each subformula to its two supports at every world, as
    bitsets in Python ints (bit ``i``: the frame's ``i``-th world),
    computed by the clause functions above, which the bounded scans of
    ``analysis`` share; reusing one evaluator across many formulas on the
    same model shares work between common subtrees.  Memoization is
    observationally invisible: results equal those of a plain structural
    recursion.  The modal clauses read the frame's ``succ`` bitsets and the
    world lookup its ``index``, both built once by the ``Frame``.

    ``supports`` is one walk over an explicit stack.  On the way down each
    node probes the memo once; on a hit it pushes the stored pair onto a
    value stack and skips its subtree.  A run of prefix nodes (``~``,
    ``#``, ``[]``) is walked down in one inner loop, each node probing the
    memo, to its first hit, atom or binary node; the run is pushed, under
    ``_RUN``, only when it ends on an uncached binary node.  A binary node
    comes back up under ``_UP``, takes its operands' pairs off the value
    stack, applies its clause and stores the result once.  A run comes
    back up in one loop, applying each node's clause and storing each
    node's result once, innermost first.  A modal clause loops over every
    world, so ``_modal`` holds one ``_ClauseMemo`` per modality, the memo
    the expressivity fold uses too, which keeps the clause's result per
    distinct operand value: a ``#`` chain on a small model meets few.
    """

    __slots__ = ("model", "_memo", "_modal")

    def __init__(self, model: Model):
        self.model = model
        self._memo: dict[Formula, tuple[int, int]] = {}
        succ = model.frame.succ
        self._modal = {Tri: _ClauseMemo(tri_clause, succ), Box: _ClauseMemo(box_clause, succ)}

    def supports(self, world: str, f: Formula) -> tuple[bool, bool]:
        m = self.model
        index = m.frame.index.get(world)
        if index is None:
            raise UnknownWorldError(f"unknown world {world!r}")
        memo, modal = self._memo, self._modal
        stack: list = [f]
        values: list[tuple[int, int]] = []
        while stack:
            g = stack.pop()
            cls = type(g)
            if cls in _NODES:
                res = memo.get(g)
                if res is None and cls is Atom:
                    res = memo[g] = atom_clause(m, g.name)
                if res is not None:
                    values.append(res)
                    continue
                if cls is And or cls is Or:
                    stack += (g, _UP, g.right, g.left)
                    continue
                run = []
                while cls in _PREFIX_NODES:  # down to a memo hit, an atom or & and |
                    run.append(g)
                    g = g.child
                    cls = type(g)
                    res = memo.get(g)
                    if res is not None:
                        break
                else:
                    if cls is Atom:
                        res = memo[g] = atom_clause(m, g.name)
                    elif cls is And or cls is Or:
                        stack += (run, _RUN, g, _UP, g.right, g.left)
                        continue
                    else:
                        raise TypeError(f"not a formula: {g!r}")
            elif g is _UP:
                g = stack.pop()
                right = values.pop()
                clause = and_clause if type(g) is And else or_clause
                values[-1] = memo[g] = clause(values[-1], right)
                continue
            elif g is _RUN:
                run = stack.pop()
                res = values.pop()
            else:
                raise TypeError(f"not a formula: {g!r}")
            for g in reversed(run):
                cls = type(g)
                res = memo[g] = not_clause(res) if cls is Not else modal[cls][res]
            values.append(res)
        pos, neg = values[0]
        return bool(pos >> index & 1), bool(neg >> index & 1)


def eval_formula(m: Model, world: str, f: Formula) -> FourValue:
    return FourValue.from_flags(*Evaluator(m).supports(world, f))


def sequent_holds(m: Model, s: Sequent) -> bool:
    """Truth preservation at every world of ``m``."""
    if not isinstance(s, Sequent):
        raise TypeError(f"sequent_holds takes a Sequent, not {type(s).__name__}")
    return _holds(Evaluator(m), s)


def _holds(ev: Evaluator, s: Sequent) -> bool:
    """``sequent_holds`` on the evaluator's model, sharing its memo."""
    for w in ev.model.frame.worlds:
        if ev.supports(w, s.premise)[0] and not ev.supports(w, s.conclusion)[0]:
            return False
    return True


def dual_model(m: Model) -> Model:
    """The model on the same frame with every variable's value dualized.

    An involution: ``dual_model(dual_model(m)) == m`` (the variable
    universe is carried along so an everywhere-N variable survives).  Each
    support is the complement of the other: ``(~neg, ~pos)`` on the worlds."""
    full = (1 << len(m.frame.worlds)) - 1
    return Model._of(m.frame, {v: (~neg & full, ~pos & full) for v, (pos, neg) in m.val.items()})


def _pairs(succ):
    """Every pair ``(i, j)`` of the relation given by successor bitsets."""
    return ((i, j) for i, s in enumerate(succ) for j in range(len(succ)) if s >> j & 1)


def _reflexive(succ):
    return all(s >> i & 1 for i, s in enumerate(succ))


def _transitive(succ):
    return all(not succ[j] & ~succ[i] for i, j in _pairs(succ))


def _symmetric(succ):
    return all(succ[j] >> i & 1 for i, j in _pairs(succ))


# Each condition takes a frame's successor bitsets (``Frame.succ``).
FRAME_PROPERTIES = {
    "reflexive": _reflexive,
    "transitive": _transitive,
    "symmetric": _symmetric,
    "euclidean": lambda succ: all(not succ[i] & ~succ[j] for i, j in _pairs(succ)),
    "serial": lambda succ: all(succ),
    "partial_functional": lambda succ: all(not s & (s - 1) for s in succ),
    "coreflexive": lambda succ: all(i == j for i, j in _pairs(succ)),
    "empty_relation": lambda succ: not any(succ),
    "equivalence": lambda succ: _reflexive(succ) and _symmetric(succ) and _transitive(succ),
    "preorder": lambda succ: _reflexive(succ) and _transitive(succ),
}


def frame_property(fr: Frame, prop: str) -> bool:
    """First-order frame conditions checked by direct quantification."""
    try:
        check = FRAME_PROPERTIES[prop]
    except KeyError:
        raise ValueError(f"unknown frame property {prop!r}") from None
    return check(fr.succ)


# --- JSON interchange --------------------------------------------------------
#
# {"worlds": ["w0", "w1"], "rel": [["w0", "w1"]],
#  "val": {"w0": {"p": "T"}, "w1": {"p": "B"}}}
#
# Values are letters in {T, B, N, F}; variables omitted at a world are N.

def frame_from_dict(data: dict) -> Frame:
    """Check what JSON decides (an object with a list of string ``worlds``
    and a list ``rel``) and leave every relation entry to the ``Frame``."""
    if not isinstance(data, dict):
        raise ModelError("frame data must be a JSON object")
    if "worlds" not in data:
        raise ModelError("missing frame field: 'worlds'")
    worlds, rel = data["worlds"], data.get("rel", [])
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise ModelError("'worlds' must be a list of strings")
    if not isinstance(rel, list):
        raise ModelError("'rel' must be a list of [source, target] pairs")
    return Frame(worlds, rel)


def frame_to_dict(fr: Frame) -> dict:
    """``rel`` in (source position, target position) order, read off the
    successor bitsets."""
    worlds, rel = fr.worlds, []
    for s, bits in zip(worlds, fr.succ):
        for j, t in enumerate(worlds):
            if bits >> j & 1:
                rel.append([s, t])
    return {"worlds": list(worlds), "rel": rel}


# Each value letter's two support flags, read off FourValue's members, and
# each letter by its flags as ``truth | falsity << 1``.
_LETTERS = {v.name: v.value for v in FourValue}
_LETTER_OF = tuple(_FLAGS[k & 1, k >> 1].name for k in range(4))


def _letter(letter, var, world) -> tuple[bool, bool]:
    """The two support flags of a value letter, or the loaders' refusal."""
    try:
        return _LETTERS[letter]
    except (KeyError, TypeError):  # TypeError: unhashable
        raise ModelError(f"bad value {letter!r} for {var!r} at {world!r}") from None


def model_from_dict(data: dict) -> Model:
    """Decode the JSON interchange form: each letter sets its world's bit in
    its variable's two supports, as ``Model.from_values`` does, with no
    ``FourValue`` built."""
    frame = frame_from_dict(data)
    val = data.get("val", {})
    if not isinstance(val, dict):
        raise ModelError("'val' must be an object")
    supports: dict[str, tuple[int, int]] = {}
    for world, assignment in val.items():
        i = frame.index.get(world)
        if i is None:
            raise UnknownWorldError(f"'val' uses unknown world {world!r}")
        if not isinstance(assignment, dict):
            raise ModelError(f"'val' entry for {world!r} must be an object")
        for var, letter in assignment.items():
            truth, falsity = _letter(letter, var, world)
            pos, neg = supports.get(var, (0, 0))
            supports[var] = pos | truth << i, neg | falsity << i
    return Model._of(frame, supports)


def model_to_dict(m: Model) -> dict:
    data = frame_to_dict(m.frame)
    data["val"] = val = {}
    supports = sorted(m.val.items())
    if supports:
        for i, w in enumerate(m.frame.worlds):
            val[w] = row = {}
            for var, (pos, neg) in supports:
                row[var] = _LETTER_OF[pos >> i & 1 | (neg >> i & 1) << 1]
    return data
