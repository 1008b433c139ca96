"""Plain references that the tests compare fdek's fast paths against.

* ``result_to_dict`` is the proof result as nested dicts; ``fdek prove
  --json`` prints ``tableau.result_to_json(r)``, which must equal
  ``json.dumps(result_to_dict(r), indent=2)`` byte for byte.
* ``extract_by_name_sets`` reads a branch's countermodel through
  per-world name sets and ``Model``, the reference for
  ``extract_countermodel``.
* ``encode_by_index`` codes an item on a branch's table through a
  ``Formula``-keyed index of its subformulas, the reference for the codes
  of ``Branch.from_items``, and ``realised_by_items`` checks a model
  against the decoded items of a branch, the reference for
  ``check_realisation``.
* ``enumerate_models`` and ``enumerate_frames`` list every *labelled*
  structure in the order whose first answer the bulk oracles report, each
  model decoded by ``model_by_values``, one ``FourValue`` per slot through
  ``Model.from_values``, the reference for ``model_from_indices``.
* ``tri_value_by_cases`` is the four-case reading of ``#``, and
  ``dual_value`` the value table of ``dual_model``.
* ``bulk_bits`` runs a formula on a ``BulkSpace`` as the premise of a
  sequent whose conclusion is its negation, so both its supports are
  yielded, ``bulk_supports`` unpacks those world bitsets into bools, and
  ``bulk_values`` reads a formula's value at each world of one model off
  the bulk sweep of its frame.
* ``modal_depth_by_postorder`` folds the modal depth children first, and
  ``size`` counts nodes, a shared subtree at each occurrence.
* ``postorder_by_equality`` lists each distinct subformula once, children
  first, deduplicated through a set of formulas, the reference for the
  list of formulas ``syntax._number`` gives; ``table_by_index`` and
  ``compile_by_index`` number its list through a ``Formula``-keyed
  index, the references for
  ``tableau._Table``'s numbering and ``bulkeval._compile``.
* ``near_and_within`` is a breadth-first search to a depth.
* ``model_names`` lists the bundled models ``figures.load_model`` reads.
"""

from typing import Iterator, Sequence

import numpy as np

from fdek.bulkeval import BulkSpace, _compile, _guard, _Program, frame_from_mask, sweep
from fdek.figures import _MODELS
from fdek.semantics import VALUE_ORDER, Evaluator, FourValue, Frame, Model, model_to_dict
from fdek.syntax import And, Atom, Box, Formula, Not, Or, Sequent, Tri, _number, render
from fdek.tableau import (
    _RBITS, _VAL_CODE, Branch, Item, Labelled, ProofNode, Proved, RelAtom, TableauResult, Val,
    _Table,
)


# --- proof results as dicts ----------------------------------------------------

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


def result_to_dict(result: TableauResult) -> dict:
    if isinstance(result, Proved):
        return {"verdict": "proved", "stats": result.stats.to_dict(),
                "tree": tree_to_dict(result.tree)}
    return {"verdict": "refuted", "stats": result.stats.to_dict(),
            "model": model_to_dict(result.model), "designated": result.world,
            "branch": branch_items(result.branch), "tree": tree_to_dict(result.tree)}


# --- countermodel extraction ----------------------------------------------------

def extract_by_name_sets(b: Branch) -> Model:
    """The model of a complete open branch through per-world name sets:
    each ``t`` (``f``) atom entry puts its variable in its world's set of
    truth (falsity) supports, the relational atoms make the relation, and
    ``Model`` decodes the sets, with every atom of the branch's table in
    the universe.  The reference for ``tableau.extract_countermodel``."""
    worlds = [b.table.names[w] for w in b.worlds]
    support = ({w: set() for w in worlds}, {w: set() for w in worlds})
    rel = []
    for item in b.items:
        if isinstance(item, RelAtom):
            rel.append((item.source, item.target))
        elif type(item.formula) is Atom and item.value in (Val.T, Val.F):
            support[item.value is Val.F][item.world].add(item.formula.name)
    mentioned = {f.name for f in b.table.formulas if type(f) is Atom}
    return Model(Frame(worlds, rel), *support, variables=mentioned)


# --- the edges of a branch, item by item ----------------------------------------

def encode_by_index(table: _Table, item: Item) -> int:
    """The code of ``item`` on ``table``: a labelled item's formula is found
    through a ``Formula``-keyed index of the table's subformulas (so it
    must be one of them), and each world label is numbered in the table if
    it is new.  The reference for the codes of ``Branch.from_items``."""
    if isinstance(item, Labelled):
        fids = {f: i for i, f in enumerate(table.formulas)}
        key = table.world(item.world) * table.size + fids[item.formula]
        return key << 2 | _VAL_CODE[item.value]
    return ~(table.world(item.source) << _RBITS | table.world(item.target))


def realised_by_items(m: Model, b: Branch) -> bool:
    """Does ``m`` satisfy every item of ``b``, each decoded: a relational
    atom is an edge of ``m``, and a labelled item's world is a world of
    ``m`` at which the scalar ``Evaluator`` gives its formula the supports
    its value label names.  The reference for ``check_realisation``."""
    ev = Evaluator(m)
    for item in b.items:
        if isinstance(item, RelAtom):
            if (item.source, item.target) not in m.frame.relation:
                return False
            continue
        if item.world not in m.frame.index:
            return False
        pos, negv = ev.supports(item.world, item.formula)
        ok = {Val.T: pos, Val.F: negv, Val.TBAR: not pos, Val.FBAR: not negv}[item.value]
        if not ok:
            return False
    return True


# --- labelled enumeration ------------------------------------------------------

def enumerate_models(world_count: int, vars: Sequence[str]) -> Iterator[Model]:
    """All models with exactly ``world_count`` labelled worlds over ``vars``:
    every relation crossed with every valuation, in a fixed deterministic
    order (relation mask ascending, then valuation index ascending)."""
    names = sorted(set(vars))
    _guard(world_count, len(names))
    for frame in enumerate_frames(world_count):
        for val_index in range(4 ** (world_count * len(names))):
            yield model_by_values(frame, names, val_index)


def model_by_values(frame: Frame, names: Sequence[str], val_index: int) -> Model:
    """The model on ``frame`` at valuation index ``val_index`` (``names``
    sorted, distinct): one ``FourValue`` per (world, variable) slot, slot
    0 the most significant base-4 digit, through ``Model.from_values``."""
    slots = len(frame.worlds) * len(names)
    values: dict[str, dict] = {w: {} for w in frame.worlds}
    for s in range(slots):
        w, j = divmod(s, len(names))
        values[frame.worlds[w]][names[j]] = VALUE_ORDER[val_index >> 2 * (slots - 1 - s) & 3]
    return Model.from_values(frame, values, variables=names)


def enumerate_frames(world_count: int) -> Iterator[Frame]:
    """All labelled frames with exactly ``world_count`` worlds."""
    for rel_mask in range(2 ** (world_count * world_count)):
        yield frame_from_mask(world_count, rel_mask)


# --- four values ---------------------------------------------------------------

def tri_value_by_cases(m: Model, world: str, f: Formula) -> FourValue:
    """Value of ``#f`` at ``world`` via the four-case characterization:

    T when ``f`` is uniformly T or uniformly F over the accessible worlds
    (vacuously at dead ends); B when they are nonempty and uniformly B;
    N likewise for N; F when two accessible worlds carry different values.

    Agrees with ``eval_formula(m, world, Tri(f))``; an independent
    cross-check of the modal clauses.
    """
    ev = Evaluator(m)
    succ = m.successors(world)
    vals = {FourValue.from_flags(*ev.supports(v, f)) for v in succ}
    if not vals:
        return FourValue.T
    if len(vals) > 1:
        return FourValue.F
    only = next(iter(vals))
    if only in (FourValue.T, FourValue.F):
        return FourValue.T
    return only


_DUAL = {FourValue.T: FourValue.T, FourValue.B: FourValue.N,
         FourValue.N: FourValue.B, FourValue.F: FourValue.F}


def dual_value(v: FourValue) -> FourValue:
    """Swap B and N; fix T and F."""
    return _DUAL[v]


# --- bulk supports as bools ----------------------------------------------------

def _unpack(bits: np.ndarray, n: int) -> np.ndarray:
    """World bitsets of shape (..., valuations) as bools of shape (..., valuations, n)."""
    octets = bits.astype(bits.dtype.newbyteorder("<"), copy=False)[..., None].view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n, bitorder="little").view(bool)


def bulk_bits(space: BulkSpace, f: Formula) -> tuple[np.ndarray, np.ndarray]:
    """Both supports of ``f`` on a ``BulkSpace`` as world bitsets, read
    off the program of ``f |- ~f`` run on each of the space's blocks: ``f``
    is a root, so its truth is demanded, and the truth of ``~f`` demands the
    falsity of ``f``.
    The values of a space of one block are that block's, of shape (1,
    valuations) where independent of the relation.  Those of several
    blocks are assembled: of shape (1, valuations) if ``f`` has no modal
    node, else (relations, valuations), a relation-independent block
    broadcast over its relations."""
    program = _compile(Sequent(f, Not(f)), space.names)
    parts = [(rows, v, space._run((rows, v, atoms), program)[program.roots[0]])
             for rows, v, atoms in space._blocks()]
    if len(parts) == 1:
        return parts[0][2]
    free = parts and not any(kind in (Tri, Box) for kind, _, _ in program.ops)
    out = np.empty((2, 1 if free else len(space.succ), 4 ** (space.n * len(space.names))),
                   space.succ.dtype)
    for rows, v, values in parts:
        for whole, bits in zip(out, values):
            whole[slice(None) if free else rows, v:v + bits.shape[1]] = bits
    return out[0], out[1]


def bulk_supports(space: BulkSpace, f: Formula) -> tuple[np.ndarray, np.ndarray]:
    """Both supports of ``f`` on a ``BulkSpace`` as bool arrays
    broadcasting to (relations, valuations, worlds)."""
    pos, neg = bulk_bits(space, f)
    return _unpack(pos, space.n), _unpack(neg, space.n)


def bulk_values(m: Model, f: Formula) -> dict[str, FourValue]:
    """The value of ``f`` at each world of ``m``, by the bulk evaluator:
    the sweep of every valuation of ``m``'s variables on its frame, read
    at the index of ``m``'s own valuation (``model_by_values``'s order)."""
    names = sorted(m.val)
    slots = [(w, v) for w in m.frame.worlds for v in names]
    index = sum(VALUE_ORDER.index(m.value(w, v)) << 2 * (len(slots) - 1 - s)
                for s, (w, v) in enumerate(slots))
    assert model_by_values(m.frame, names, index) == m
    pos, neg = bulk_supports(sweep(m.frame, names), f)
    return {w: FourValue.from_flags(pos[0, index, i], neg[0, index, i])
            for i, w in enumerate(m.frame.worlds)}


# --- modal depth ---------------------------------------------------------------

def modal_depth_by_postorder(*fs: Formula) -> int:
    """The deepest nesting of ``#`` and ``[]``, folded children first over
    ``syntax._number``'s list."""
    depths: dict[Formula, int] = {}
    for node in _number(*fs)[0]:
        below = max((depths[getattr(node, name)] for name in node._fields), default=0)
        depths[node] = below + isinstance(node, (Tri, Box))
    return max((depths[f] for f in fs), default=0)


def near_and_within(successors, root: str, depth: int) -> tuple[set, set]:
    """The worlds fewer than ``depth`` steps from ``root``, and those at
    most ``depth`` steps away, by breadth-first search over
    ``successors(world)``."""
    near, within = set(), {root}
    frontier = within
    for _ in range(depth):
        near = within
        frontier = {t for w in frontier for t in successors(w)} - within
        within = within | frontier
    return near, within


def size(f: Formula) -> int:
    """Number of AST nodes, a shared subtree counted at each occurrence."""
    sizes: dict[Formula, int] = {}
    for node in _number(f)[0]:
        sizes[node] = 1 + sum(sizes[getattr(node, name)] for name in node._fields)
    return sizes[f]


# --- the numbering by formula equality -------------------------------------------

def postorder_by_equality(*fs: Formula) -> list[Formula]:
    """Each distinct subformula of ``fs`` once, every node after its
    children: a walk that skips a node equal to one met before, with its
    subtree, through a set of formulas.  The reference for the list of
    formulas ``syntax._number`` gives."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(f, False) for f in reversed(fs)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            for name in reversed(node._fields):
                stack.append((getattr(node, name), False))
    return order


def table_by_index(*roots: Formula) -> tuple[list[Formula], list[tuple[type, int, int]]]:
    """The subformulas of ``roots`` in ``postorder_by_equality`` and, for
    each, its class and the positions of its children there, read through
    a ``Formula``-keyed index, 0 where it has fewer than two.  The
    reference for ``tableau._Table``'s ``formulas`` and ``nodes``, up to
    their padding."""
    formulas = postorder_by_equality(*roots)
    fids = {f: i for i, f in enumerate(formulas)}
    nodes = []
    for f in formulas:
        kids = [fids[getattr(f, name)] for name in f._fields]
        nodes.append((type(f), *(kids + [0, 0])[:2]))
    return formulas, nodes


def compile_by_index(claim: Sequent | Formula, names: Sequence[str] | None = None) -> _Program:
    """The program of ``claim`` over the sorted variables ``names``
    (default: the claim's own), numbered by one pass forward over
    ``postorder_by_equality`` through a ``Formula``-keyed index, which also
    folds each node's modal depth; one pass back sets the demands and the
    frees.  The reference for ``bulkeval._compile``."""
    sequent = isinstance(claim, Sequent)
    order = postorder_by_equality(*((claim.premise, claim.conclusion) if sequent else (claim,)))
    if names is None:
        names = sorted({g.name for g in order if type(g) is Atom})
    slot = {name: j for j, name in enumerate(names)}
    index: dict[Formula, int] = {}
    ops: list[tuple[type, int, int]] = []
    depths: list[int] = []
    for g in order:
        kind = type(g)
        if kind is Atom:
            op, depth = (kind, slot[g.name], -1), 0
        elif kind is And or kind is Or:
            a, b = index[g.left], index[g.right]
            op, depth = (kind, a, b), max(depths[a], depths[b])
        else:
            a = index[g.child]
            op, depth = (kind, a, -1), depths[a] + (kind is not Not)
        index[g] = len(ops)
        ops.append(op)
        depths.append(depth)
    roots = ((index[claim.premise], index[claim.conclusion]) if sequent
             else (index[claim],))
    need = [0] * len(ops)
    read = [False] * len(ops)
    frees: list[tuple[int, ...]] = [()] * len(ops)
    for r in roots:
        need[r], read[r] = 1, True
    for i in range(len(ops) - 1, -1, -1):
        kind, a, b = ops[i]
        if kind is Atom:
            continue
        want = need[i]
        if kind is Not:
            need[a] |= (want & 1) << 1 | want >> 1
        elif b >= 0:
            need[a] |= want
            need[b] |= want
        else:
            need[a] = 3
        if not read[a]:
            read[a] = True
            frees[i] = (a,)
        if b >= 0 and not read[b]:
            read[b] = True
            frees[i] += (b,)
    return _Program(tuple(names), max(depths[r] for r in roots), ops, need, frees, roots,
                    sequent)


# --- bundled data --------------------------------------------------------------

def model_names() -> tuple[str, ...]:
    return _MODELS
