"""Plain references that the tests compare fdek's fast paths against.

* ``result_to_dict`` is the proof result as nested dicts; ``fdek prove
  --json`` prints ``tableau.result_to_json(r)``, which must equal
  ``json.dumps(result_to_dict(r), indent=2)`` byte for byte.
* ``enumerate_models`` and ``enumerate_frames`` list every *labelled*
  structure in the order whose first answer the bulk oracles report, each
  model decoded by ``model_by_values``, one ``FourValue`` per slot through
  ``Model.from_values``, the reference for ``model_from_indices``.
* ``tri_value_by_cases`` is the four-case reading of ``#``, and
  ``dual_value`` the value table of ``dual_model``.
* ``bulk_bits`` runs a formula on a ``BulkSpace`` compiled to yield both
  supports, ``bulk_supports`` unpacks those world bitsets into bools, and
  ``bulk_values`` reads a formula's value at each world of one model off
  the bulk sweep of its frame.
* ``modal_depth_by_postorder`` folds the modal depth children first, and
  ``size`` counts nodes, a shared subtree at each occurrence.
* ``near_and_within`` is a breadth-first search to a depth.
* ``model_names`` lists the bundled models ``figures.load_model`` reads.
"""

from typing import Iterator, Sequence

import numpy as np

from fdek.bulkeval import BulkSpace, _compile, _guard, frame_from_mask, sweep
from fdek.figures import _MODELS
from fdek.semantics import VALUE_ORDER, Evaluator, FourValue, Frame, Model, model_to_dict
from fdek.syntax import Box, Formula, Tri, postorder, render
from fdek.tableau import Branch, Item, ProofNode, Proved, RelAtom, TableauResult


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
    """Both supports of ``f`` on a ``BulkSpace`` as world bitsets: a
    one-root program demanding both."""
    program = _compile(f, space.names, 3)
    return space._run(program)[program.roots[0]]


def bulk_supports(space: BulkSpace, f: Formula) -> tuple[np.ndarray, np.ndarray]:
    """Both supports of ``f`` on a ``BulkSpace`` as bool arrays
    broadcasting to (relations, valuations, worlds)."""
    pos, neg = bulk_bits(space, f)
    return _unpack(pos, space.n), _unpack(neg, space.n)


def bulk_values(m: Model, f: Formula) -> dict[str, FourValue]:
    """The value of ``f`` at each world of ``m``, by the bulk evaluator:
    one block of every valuation of ``m``'s variables on its frame, read
    at the index of ``m``'s own valuation (``model_by_values``'s order)."""
    names = sorted(m.val)
    slots = [(w, v) for w in m.frame.worlds for v in names]
    index = sum(VALUE_ORDER.index(m.value(w, v)) << 2 * (len(slots) - 1 - s)
                for s, (w, v) in enumerate(slots))
    assert model_by_values(m.frame, names, index) == m
    [space] = sweep(m.frame, names)
    pos, neg = bulk_supports(space, f)
    return {w: FourValue.from_flags(pos[0, index, i], neg[0, index, i])
            for i, w in enumerate(m.frame.worlds)}


# --- modal depth ---------------------------------------------------------------

def modal_depth_by_postorder(*fs: Formula) -> int:
    """The deepest nesting of ``#`` and ``[]``, folded over ``postorder``."""
    depths: dict[Formula, int] = {}
    for node in postorder(*fs):
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
    for node in postorder(f):
        sizes[node] = 1 + sum(sizes[getattr(node, name)] for name in node._fields)
    return sizes[f]


# --- bundled data --------------------------------------------------------------

def model_names() -> tuple[str, ...]:
    return _MODELS
