"""Vectorized evaluation over every model on every frame of a fixed size,
or over every valuation on one given frame: the one exhaustive evaluator
(the scalar ``Evaluator`` in ``semantics`` is the independent reference).

The model space for ``n`` worlds over ``k`` variables is the cross product
of all 2^(n*n) relations with all 4^(n*k) valuations.  A formula's two
supports are world bitsets: arrays of shape (relations, valuations), or
(1, valuations) where independent of the relation, whose bit ``w`` means
"supported at world ``w``", in the narrowest unsigned type that holds n
bits: ``uint8`` up to 8 worlds, ``uint16`` for the 9 to 12 worlds a given
frame may have (relation sweeps stay at n <= 4, the size guard).  ``~``,
``&``, ``|`` are bitwise, every complement masked to the low n bits; a
successor quantifier is one mask compare per world against that world's
successor bitset.  A sweep decodes its relation masks into successor
bitsets; a given frame is bound from its own successor bitsets, since its
relation mask would not fit 64 bits from 8 worlds on.

The index layout of the model space is known only to this module;
``semantics`` and ``analysis`` go through ``BulkSpace.on_frame``,
``sweep``, ``model_from_indices`` and ``frame_from_mask``:

* relation ``r`` contains the pair (i, j) iff bit ``i*n + j`` of the mask
  is set; masks are enumerated ascending;
* valuation slots are (world, variable) pairs, worlds outermost (in frame
  order) and variables in sorted order; slot 0 is the most significant
  base-4 digit of the valuation index; digit values 0..3 mean T, B, N, F.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .semantics import VALUE_ORDER, Frame, Model, _guard
from .syntax import And, Atom, Box, Formula, Not, Or, Sequent, Tri

__all__ = ["BulkSpace", "sweep", "model_from_indices", "frame_from_mask"]

_CHUNK_CELLS = 50_000_000  # per-array budget (relations x valuations x worlds) of one chunk

# Support of truth (row 0) and of falsity (row 1) for base-4 digits 0..3.
_DIGIT_SUPPORTS = np.array([[v.supports_truth for v in VALUE_ORDER],
                            [v.supports_falsity for v in VALUE_ORDER]], dtype=np.uint8)


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


def _bitset_type(n: int) -> type:
    """The narrowest unsigned type with one bit per world of ``n``."""
    return np.uint8 if n <= 8 else np.uint16


def _atom_tables(n: int, names: Sequence[str]) -> dict[Atom, tuple[np.ndarray, np.ndarray]]:
    """Both supports of every atom as world bitsets of shape (1, valuations),
    built by broadcasting each slot's digit pattern into its world's bit."""
    k = len(names)
    slots = n * k
    dtype = _bitset_type(n)
    digits = _DIGIT_SUPPORTS.astype(dtype, copy=False)
    world_bits = digits[:, None, :] << np.arange(n, dtype=dtype)[:, None]
    tables = np.zeros((k, 2) + (4,) * slots, dtype=dtype)
    for s in range(slots):
        w, j = divmod(s, k)
        tables[j] |= world_bits[:, w].reshape((2,) + (1,) * s + (4,) + (1,) * (slots - 1 - s))
    tables = tables.reshape(k, 2, 1, -1)
    return {Atom(var): (tables[j, 0], tables[j, 1]) for j, var in enumerate(names)}


def _unpack(bits: np.ndarray, n: int) -> np.ndarray:
    """World bitsets of shape (..., valuations) as bools of shape (..., valuations, n)."""
    octets = bits.astype(bits.dtype.newbyteorder("<"), copy=False)[..., None].view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=n, bitorder="little").view(bool)


class BulkSpace:
    """Every pointed model over the given relation masks (default: all of
    them) and every valuation of ``variables`` on ``n_worlds`` worlds; or,
    built by ``on_frame``, every valuation on one given frame (no
    ``rel_masks`` then)."""

    def __init__(self, n_worlds: int, variables: Sequence[str],
                 rel_masks: Sequence[int] | None = None):
        names = tuple(sorted(variables))
        _guard(n_worlds, len(names))
        if rel_masks is None:
            rel_masks = np.arange(2 ** (n_worlds * n_worlds), dtype=np.int64)
        self._bind(n_worlds, _atom_tables(n_worlds, names), rel_masks)

    @classmethod
    def on_frame(cls, frame: Frame, variables: Sequence[str]) -> BulkSpace:
        """Every valuation of ``variables`` on ``frame``: a space of one
        relation whose world ``i`` is ``frame.worlds[i]``."""
        names = tuple(sorted(variables))
        n = len(frame.worlds)
        _guard(n, len(names), relations=False)
        index = {w: i for i, w in enumerate(frame.worlds)}
        succ = np.zeros((1, n), dtype=_bitset_type(n))
        for s, t in frame.relation:
            succ[0, index[s]] |= 1 << index[t]
        space = cls.__new__(cls)
        space._bind(n, _atom_tables(n, names), None, succ)
        return space

    def _bind(self, n: int, atoms: dict, rel_masks, succ: np.ndarray | None = None) -> None:
        """Bind to relation masks, or (``rel_masks`` None) to a given frame's
        ``succ``.  ``succ[r, w]``: bit j is set iff relation r contains (w, j)."""
        self.n = n
        self.variables = tuple(a.name for a in atoms)
        self.rel_masks = None if rel_masks is None else np.asarray(rel_masks, dtype=np.int64)
        if succ is None:
            succ = self.rel_masks[:, None] >> n * np.arange(n) & (1 << n) - 1
            succ = succ.astype(_bitset_type(n))
        self.succ = succ
        self.full = succ.dtype.type((1 << n) - 1)
        self._memo: dict[Formula, tuple[np.ndarray, np.ndarray]] = dict(atoms)

    def _any(self, x: np.ndarray) -> np.ndarray:
        """Bit w of out[r, v]: some successor of w under relation r is in x[r, v]."""
        dtype = self.succ.dtype
        out = np.zeros((len(self.succ), x.shape[1]), dtype=dtype)
        for w in range(self.n):
            out |= ((x & self.succ[:, w, None]) != 0).view(np.uint8).astype(dtype, copy=False) << w
        return out

    def supports(self, f: Formula) -> tuple[np.ndarray, np.ndarray]:
        """Both supports as bool arrays broadcasting to (relations, valuations, worlds)."""
        pos, neg = self._bits(f)
        return _unpack(pos, self.n), _unpack(neg, self.n)

    def _bits(self, f: Formula) -> tuple[np.ndarray, np.ndarray]:
        """Both supports of ``f`` as world bitsets, memoized per formula."""
        hit = self._memo.get(f)
        if hit is not None:
            return hit
        if isinstance(f, Atom):
            raise KeyError(f"variable {f.name!r} not in this space")
        elif isinstance(f, Not):
            pos, neg = self._bits(f.child)
            res = (neg, pos)
        elif isinstance(f, And):
            lp, ln = self._bits(f.left)
            rp, rn = self._bits(f.right)
            res = (lp & rp, ln | rn)
        elif isinstance(f, Or):
            lp, ln = self._bits(f.left)
            rp, rn = self._bits(f.right)
            res = (lp | rp, ln & rn)
        elif isinstance(f, Tri):
            # True: no split on a support and no unvalued successor.  False: a
            # split, or one successor supports the truth while one the falsity.
            pos, neg = self._bits(f.child)
            full = self.full
            some_p, some_not_p = self._any(pos), self._any(~pos & full)
            some_n, some_not_n = self._any(neg), self._any(~neg & full)
            split = (some_p & some_not_p) | (some_n & some_not_n)
            res = (~(split | self._any(~(pos | neg) & full)) & full,
                   split | (some_p & some_n))
        elif isinstance(f, Box):
            pos, neg = self._bits(f.child)
            res = (~self._any(~pos & self.full) & self.full, self._any(neg))
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._memo[f] = res
        return res

    def _refuting(self, claim: Sequent | Formula) -> np.ndarray:
        """Bitsets of the worlds where the premise is supported-true and the
        conclusion is not, or a formula claim is not supported-true."""
        if isinstance(claim, Sequent):
            return self._bits(claim.premise)[0] & ~self._bits(claim.conclusion)[0]
        return ~self._bits(claim)[0] & self.full

    def first_countermodel(self, s: Sequent) -> tuple[int, int, int] | None:
        """Indices (relation, valuation, world) of the first pointed model
        where the premise is supported-true and the conclusion is not, in
        enumeration order: the first nonzero bitset, then its lowest bit.
        None if the sequent holds throughout.  A relation-independent result
        has a singleton relation axis, so its countermodel lies on relation 0."""
        bad = self._refuting(s)
        flat = int((bad != 0).argmax())
        bits = int(bad.flat[flat])
        if not bits:
            return None
        r, v = divmod(flat, bad.shape[1])
        return r, v, (bits & -bits).bit_length() - 1

    def valid_per_relation(self, claim: Sequent | Formula) -> np.ndarray:
        """Boolean vector over this space's relations: the claim holds at
        every valuation and world of that frame."""
        ok = ~self._refuting(claim).any(axis=1)
        return np.broadcast_to(ok, (len(self.succ),))


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
