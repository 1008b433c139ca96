"""Vectorized evaluation over every model on every frame of a fixed size.

The model space for ``n`` worlds over ``k`` variables is the cross product
of all 2^(n*n) relations with all 4^(n*k) valuations.  A formula's two
support relations are computed as boolean arrays of shape
``(relations, valuations, worlds)``, so exhaustive searches over millions
of pointed models become a handful of array operations.

The index layout of the model space is known only to this module; the
oracles in ``analysis`` go through ``sweep``, ``model_from_indices`` and
``frame_from_mask``:

* relation ``r`` contains the pair (i, j) iff bit ``i*n + j`` of the mask
  is set; masks are enumerated ascending;
* valuation slots are (world, variable) pairs, worlds outermost and
  variables in sorted order; slot 0 is the most significant base-4 digit
  of the valuation index; digit values 0..3 mean T, B, N, F.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .semantics import VALUE_ORDER, Frame, Model, _guard
from .syntax import And, Atom, Box, Formula, Not, Or, Sequent, Tri

__all__ = ["BulkSpace", "sweep", "model_from_indices", "frame_from_mask"]

_CHUNK_CELLS = 50_000_000  # per-array budget (relations x valuations x worlds) of one chunk

# Support of truth and of falsity for base-4 digits 0..3.
_DIGIT_POS = np.array([v.supports_truth for v in VALUE_ORDER])
_DIGIT_NEG = np.array([v.supports_falsity for v in VALUE_ORDER])


def frame_from_mask(n_worlds: int, rel_mask: int) -> Frame:
    """The frame on worlds ``w0 .. w{n-1}`` whose relation is ``rel_mask``."""
    n = n_worlds
    worlds = tuple(f"w{i}" for i in range(n))
    return Frame(worlds, [(worlds[i], worlds[j])
                          for i in range(n) for j in range(n) if rel_mask >> (i * n + j) & 1])


def model_from_indices(world_count: int, vars: Sequence[str],
                       rel_mask: int, val_index: int) -> Model:
    """Decode one point of the enumeration: relation mask, valuation index."""
    names = sorted(set(vars))
    frame = frame_from_mask(world_count, rel_mask)
    slots = world_count * len(names)
    values: dict[str, dict] = {w: {} for w in frame.worlds}
    for s in range(slots):
        w, j = divmod(s, len(names))
        values[frame.worlds[w]][names[j]] = VALUE_ORDER[val_index >> 2 * (slots - 1 - s) & 3]
    return Model.from_values(frame, values, variables=names)


def _atom_tables(n: int, names: Sequence[str]) -> dict[Atom, tuple[np.ndarray, np.ndarray]]:
    """Both supports of every atom at every (valuation, world), as arrays of
    shape (1, valuations, worlds).  Built by broadcasting each slot's digit
    pattern, so no table of valuation indices or digits is materialised."""
    k = len(names)
    slots = n * k
    pos = np.empty((4,) * slots + (slots,), dtype=bool)
    neg = np.empty_like(pos)
    for s in range(slots):
        axis = (1,) * s + (4,) + (1,) * (slots - 1 - s)
        pos[..., s] = _DIGIT_POS.reshape(axis)
        neg[..., s] = _DIGIT_NEG.reshape(axis)
    pos = pos.reshape(4 ** slots, slots)
    neg = neg.reshape(4 ** slots, slots)
    return {Atom(var): (pos[None, :, j::k], neg[None, :, j::k])
            for j, var in enumerate(names)}


class BulkSpace:
    """Every pointed model over the given relation masks (default: all of
    them) and every valuation of ``variables`` on ``n_worlds`` worlds."""

    def __init__(self, n_worlds: int, variables: Sequence[str],
                 rel_masks: Sequence[int] | None = None):
        names = tuple(sorted(variables))
        _guard(n_worlds, len(names))
        if rel_masks is None:
            rel_masks = np.arange(2 ** (n_worlds * n_worlds), dtype=np.int64)
        self._bind(n_worlds, _atom_tables(n_worlds, names), rel_masks)

    def _bind(self, n: int, atoms: dict, rel_masks) -> None:
        self.n = n
        self.variables = tuple(a.name for a in atoms)
        self.rel_masks = np.asarray(rel_masks, dtype=np.int64)
        bits = (self.rel_masks[:, None] >> np.arange(n * n, dtype=np.int64)) & 1
        self.rel = bits.reshape(len(self.rel_masks), n, n).astype(bool)
        self._memo: dict[Formula, tuple[np.ndarray, np.ndarray]] = dict(atoms)

    def _succ_any(self, x: np.ndarray) -> np.ndarray:
        """out[r, v, w] = some successor w' of w under relation r has x[r, v, w']."""
        n = self.n
        out = np.empty((self.rel.shape[0], x.shape[1], n), dtype=bool)
        for w in range(n):
            mask = self.rel[:, w, :]          # (R, n)
            out[:, :, w] = (x & mask[:, None, :]).any(axis=2)
        return out

    def _succ_all(self, x: np.ndarray) -> np.ndarray:
        return ~self._succ_any(~x)

    def supports(self, f: Formula) -> tuple[np.ndarray, np.ndarray]:
        """(supported-true, supported-false) arrays; shape broadcasts to
        (relations, valuations, worlds)."""
        hit = self._memo.get(f)
        if hit is not None:
            return hit
        if isinstance(f, Atom):
            raise KeyError(f"variable {f.name!r} not in this space")
        elif isinstance(f, Not):
            pos, neg = self.supports(f.child)
            res = (neg, pos)
        elif isinstance(f, And):
            lp, ln = self.supports(f.left)
            rp, rn = self.supports(f.right)
            res = (lp & rp, ln | rn)
        elif isinstance(f, Or):
            lp, ln = self.supports(f.left)
            rp, rn = self.supports(f.right)
            res = (lp | rp, ln & rn)
        elif isinstance(f, Tri):
            pos, neg = self.supports(f.child)
            any_p = self._succ_any(pos)
            all_p = self._succ_all(pos)
            any_n = self._succ_any(neg)
            all_n = self._succ_all(neg)
            agree = (all_p | ~any_p) & (all_n | ~any_n)
            valued = self._succ_all(pos | neg)
            res = (agree & valued,
                   (any_p & ~all_p) | (any_n & ~all_n) | (any_p & any_n))
        elif isinstance(f, Box):
            pos, neg = self.supports(f.child)
            res = (self._succ_all(pos), self._succ_any(neg))
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._memo[f] = res
        return res

    def _refuting(self, claim: Sequent | Formula) -> np.ndarray:
        """Cells where the claim fails: the premise is supported-true and the
        conclusion is not, or a formula claim is not supported-true."""
        if isinstance(claim, Sequent):
            prem_pos, _ = self.supports(claim.premise)
            conc_pos, _ = self.supports(claim.conclusion)
            return prem_pos & ~conc_pos
        pos, _ = self.supports(claim)
        return ~pos

    def first_countermodel(self, s: Sequent) -> tuple[int, int, int] | None:
        """Indices (relation, valuation, world) of the first pointed model
        where the premise is supported-true and the conclusion is not, in
        enumeration order; None if the sequent holds throughout.  A
        relation-independent result has a singleton relation axis, so its
        first countermodel lies on relation 0."""
        bad = self._refuting(s)
        flat = int(bad.argmax())
        if not bad.flat[flat]:
            return None
        r, v, w = np.unravel_index(flat, bad.shape)
        return int(r), int(v), int(w)

    def sequent_holds_everywhere(self, s: Sequent) -> bool:
        return self.first_countermodel(s) is None

    def valid_per_relation(self, claim: Sequent | Formula) -> np.ndarray:
        """Boolean vector over this space's relations: the claim holds at
        every valuation and world of that frame."""
        ok = ~self._refuting(claim).any(axis=(1, 2))
        return np.broadcast_to(ok, self.rel_masks.shape)


def sweep(n_worlds: int, variables: Sequence[str]) -> Iterator[BulkSpace]:
    """The whole model space on ``n_worlds`` worlds over ``variables``, as
    BulkSpaces over consecutive chunks of relation masks in ascending order.
    Each chunk's arrays hold at most ``_CHUNK_CELLS`` cells (at least one
    relation), and the atom tables are built once and shared by all chunks."""
    names = tuple(sorted(variables))
    _guard(n_worlds, len(names))
    atoms = _atom_tables(n_worlds, names)
    total = 2 ** (n_worlds * n_worlds)
    step = max(1, _CHUNK_CELLS // (4 ** (n_worlds * len(names)) * n_worlds))
    for start in range(0, total, step):
        space = BulkSpace.__new__(BulkSpace)
        space._bind(n_worlds, atoms, np.arange(start, min(start + step, total), dtype=np.int64))
        yield space
