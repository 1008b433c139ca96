"""Plain references that the tests compare fdek's fast paths against.

* ``result_to_dict`` is the proof result as nested dicts; ``fdek prove
  --json`` prints ``tableau.result_to_json(r)``, which must equal
  ``json.dumps(result_to_dict(r), indent=2)`` byte for byte.
* ``enumerate_models`` and ``enumerate_frames`` list every *labelled*
  structure in the order whose first answer the bulk oracles report.
* ``tri_value_by_cases`` is the four-case reading of ``#``, and
  ``dual_value`` the value table of ``dual_model``.
* ``bulk_supports`` unpacks a ``BulkSpace``'s world bitsets into bools.
* ``modal_depth_by_postorder`` folds the modal depth children first.
"""

from typing import Iterator, Sequence

import numpy as np

from fdek.bulkeval import BulkSpace, _guard, _model_on, frame_from_mask
from fdek.semantics import Evaluator, FourValue, Frame, Model, model_to_dict
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
            yield _model_on(frame, names, val_index)


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


def bulk_supports(space: BulkSpace, f: Formula) -> tuple[np.ndarray, np.ndarray]:
    """Both supports of ``f`` on a ``BulkSpace`` as bool arrays
    broadcasting to (relations, valuations, worlds)."""
    pos, neg = space._bits(f)
    return _unpack(pos, space.n), _unpack(neg, space.n)


# --- modal depth ---------------------------------------------------------------

def modal_depth_by_postorder(*fs: Formula) -> int:
    """The deepest nesting of ``#`` and ``[]``, folded over ``postorder``."""
    depths: dict[Formula, int] = {}
    for node in postorder(*fs):
        below = max((depths[getattr(node, name)] for name in node._fields), default=0)
        depths[node] = below + isinstance(node, (Tri, Box))
    return max((depths[f] for f in fs), default=0)
