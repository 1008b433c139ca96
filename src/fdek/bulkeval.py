"""Vectorized evaluation over every model on every frame of a fixed size,
or over every valuation on one given frame: the one exhaustive evaluator
(the scalar ``Evaluator`` in ``semantics`` is the independent reference).

The model space for ``n`` worlds over ``k`` variables is the cross product
of all 2^(n*n) relations with all 4^(n*k) valuations; on a given frame it
is that frame's one relation with every valuation.  A sweep over every
relation visits one relation per isomorphism class (``representatives``):
validity is invariant under renaming worlds, so the first refuting
relation in ascending mask order is the smallest of its class, and the
sweep finds the labelled scan's first witness.  A sweep given a modal
depth d keeps only the rooted classes, where some world reaches every
world within d steps: a formula of depth d at a world reads only the
worlds within d steps of it (invariance under generated submodels), so
once no smaller model refutes a claim, every refuting relation is rooted
at the refuting world, and the first witness stays where it was.

A formula's two supports are world bitsets: arrays of shape (relations,
valuations), or (1, valuations) where independent of the relation, whose
bit ``w`` means "supported at world ``w``", in the narrowest unsigned type
that holds n bits: ``uint8`` up to 8 worlds, ``uint16`` for the 9 to 12
worlds a given frame may have (relation sweeps stay at n <= 4, the size
guard).  ``~``, ``&``, ``|`` are bitwise, every complement masked to the
low n bits; ``#`` and ``[]`` take one pass per world, comparing the
child's supports within that world's successor bitset with the bitset
itself, decoded from relation masks or, for a given frame, its
``Frame.succ`` (whose relation mask would not fit 64 bits from 8 worlds
on).

What a scan costs and how its space is laid out are known only to this
module: ``_guard`` refuses a scan before anything is allocated, from its
world count or its given frame, and ``sweep`` reads the space in blocks
of at most ``_CHUNK_CELLS`` cells, so a caller can stop at the first
block that settles its question.  ``semantics`` and ``analysis`` go
through ``_guard``, ``sweep``, ``model_from_indices``, ``frame_from_mask``
and, for the frame properties of a definability sweep,
``representatives`` and ``_successors``.  A space over chosen relation
masks, ``BulkSpace(n, variables, masks)``, is for labelled scans outside
the sweeps (the tests' references and the benchmark's probes):

* relation ``r`` contains the pair (i, j) iff bit ``i*n + j`` of the mask
  is set; a sweep enumerates the class representatives ascending, and
  ``BulkSpace`` the masks it is given (default: every mask, ascending);
* valuation slots are (world, variable) pairs, worlds outermost (in frame
  order) and variables in sorted order; slot 0 is the most significant
  base-4 digit of the valuation index; digit values 0..3 mean T, B, N, F.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .semantics import VALUE_ORDER, BoundExceededError, Frame, Model
from .syntax import And, Atom, Box, Formula, Not, Or, Sequent, Tri, postorder

__all__ = ["BulkSpace", "sweep", "representatives", "model_from_indices",
           "frame_from_mask", "DEFAULT_VALUATION_BOUND"]

DEFAULT_VALUATION_BOUND = 12  # (world, variable) valuation slots one scan may take
# (relation, valuation, world) cells one sweep over every relation may
# visit: 2x6 (5.4e8) and 3x3 (4.0e8) fit, 3x4 (2.6e10) does not.
_MAX_SWEEP_CELLS = 10 ** 9
_CHUNK_CELLS = 50_000_000  # per-array budget (relations x valuations x worlds) of one block

# Support of truth (row 0) and of falsity (row 1) for base-4 digits 0..3.
_DIGIT_SUPPORTS = np.array([[v.supports_truth for v in VALUE_ORDER],
                            [v.supports_falsity for v in VALUE_ORDER]], dtype=np.uint8)


def _guard(worlds: int | Frame, variable_count: int) -> None:
    """The one size guard of every exhaustive scan; call it before
    allocating.  ``worlds``: a world count, every relation on which is
    enumerated, or a given frame, which is one relation."""
    given = isinstance(worlds, Frame)
    world_count = len(worlds.worlds) if given else worlds
    if world_count < 1:
        raise ValueError("need at least one world")
    if variable_count < 1:
        raise ValueError("need at least one variable")
    if world_count * variable_count > DEFAULT_VALUATION_BOUND:
        raise BoundExceededError(
            f"{world_count} worlds x {variable_count} variables exceeds bound "
            f"{DEFAULT_VALUATION_BOUND}")
    # The slot rule above caps world_count at 12, so these powers are cheap,
    # and one relation stays within the budget (4^12 * 12 cells at most).
    relations = 1 if given else 2 ** (world_count * world_count)
    cells = relations * 4 ** (world_count * variable_count) * world_count
    if cells > _MAX_SWEEP_CELLS:
        raise BoundExceededError(
            f"{world_count} worlds x {variable_count} variables over every relation "
            f"is {cells:.1e} cells, beyond the budget of {_MAX_SWEEP_CELLS:.0e}")


def frame_from_mask(n_worlds: int, rel_mask: int) -> Frame:
    """The frame on worlds ``w0 .. w{n-1}`` whose relation is ``rel_mask``."""
    n = n_worlds
    worlds = tuple(f"w{i}" for i in range(n))
    return Frame(worlds, [(worlds[i], worlds[j])
                          for i in range(n) for j in range(n) if rel_mask >> (i * n + j) & 1])


def model_from_indices(world_count: int, vars: Sequence[str],
                       rel_mask: int, val_index: int) -> Model:
    """Decode one point of the enumeration: relation mask, valuation index."""
    return _model_on(frame_from_mask(world_count, rel_mask), sorted(set(vars)), val_index)


def _model_on(frame: Frame, names: Sequence[str], val_index: int) -> Model:
    """The model on ``frame`` at valuation index ``val_index`` (``names`` sorted, distinct)."""
    slots = len(frame.worlds) * len(names)
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


class BulkSpace:
    """Every pointed model over the given relation masks (default: all of
    them) and every valuation of ``variables`` on ``n_worlds`` worlds; a
    block of a ``sweep`` starts at (relation, valuation) index ``start``
    of the swept list.  ``masks[r]`` is the mask of relation ``r``; None
    on a given frame."""

    def __init__(self, n_worlds: int, variables: Sequence[str],
                 rel_masks: Sequence[int] | None = None):
        names = tuple(sorted(variables))
        _guard(n_worlds, len(names))
        masks = (np.arange(2 ** (n_worlds * n_worlds)) if rel_masks is None
                 else np.asarray(rel_masks, dtype=np.int64))
        self._bind(n_worlds, _atom_tables(n_worlds, names), _successors(n_worlds, masks), masks)

    def _bind(self, n: int, atoms: dict, succ: np.ndarray, masks: np.ndarray | None,
              start=(0, 0)) -> None:
        """``succ[r, w]``: bit j is set iff relation r contains (w, j)."""
        self.n = n
        self.start = start
        self.succ = succ
        self.masks = masks
        self.full = succ.dtype.type((1 << n) - 1)
        self._memo: dict[Formula, tuple[np.ndarray, np.ndarray]] = dict(atoms)

    def _bits(self, f: Formula) -> tuple[np.ndarray, np.ndarray]:
        """Both supports of ``f`` as world bitsets, memoized per formula."""
        memo = self._memo
        for g in postorder(f, skip=memo):
            if isinstance(g, Atom):
                raise KeyError(f"variable {g.name!r} not in this space")
            elif isinstance(g, Not):
                pos, neg = memo[g.child]
                res = (neg, pos)
            elif isinstance(g, And):
                lp, ln = memo[g.left]
                rp, rn = memo[g.right]
                res = (lp & rp, ln | rn)
            elif isinstance(g, Or):
                lp, ln = memo[g.left]
                rp, rn = memo[g.right]
                res = (lp | rp, ln & rn)
            elif isinstance(g, (Tri, Box)):
                res = self._modal(isinstance(g, Tri), *memo[g.child])
            else:
                raise TypeError(f"not a formula: {g!r}")
            memo[g] = res
        return memo[f]

    def _modal(self, tri: bool, pos: np.ndarray,
               neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both supports of ``#`` (``tri``) or ``[]`` over a formula of supports
        ``pos``, ``neg``: one pass per world w, on the successor bitset s of w
        and its members ps, ns that support the truth and the falsity, with
        the cases of ``semantics.tri_clause`` and ``box_clause``: "some" is
        ``!= 0``, "all" is ``== s``."""
        dtype = self.succ.dtype
        true = np.zeros((len(self.succ), pos.shape[1]), dtype=dtype)
        false = np.zeros_like(true)
        for w in range(self.n):
            s = self.succ[:, w, None]
            ps, ns = pos & s, neg & s
            if tri:
                # True: no split on a support and no unvalued successor.  False: a
                # split (some but not all successors support the truth, or the
                # falsity), or one successor supports the truth while one the falsity.
                any_p, any_n = ps != 0, ns != 0
                split = (any_p & (ps != s)) | (any_n & (ns != s))
                t = (ps | ns) == s
                t &= ~split
                f = split | (any_p & any_n)
            else:
                t, f = ps == s, ns != 0
            true |= t.view(np.uint8).astype(dtype, copy=False) << w
            false |= f.view(np.uint8).astype(dtype, copy=False) << w
        return true, false

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
        has a singleton relation axis, so its countermodel lies on index 0,
        the first of this space's relations (``masks[0]``)."""
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


def _successors(worlds: int | Frame, rel_masks: np.ndarray | None) -> np.ndarray:
    """Successor bitsets, shape (relations, n), of ``rel_masks`` on ``worlds`` worlds,
    or of a given frame, world i being its i-th."""
    if isinstance(worlds, Frame):
        return np.array([worlds.succ], dtype=_bitset_type(len(worlds.worlds)))
    n = worlds
    return (rel_masks[:, None] >> n * np.arange(n) & (1 << n) - 1).astype(_bitset_type(n))


@lru_cache(maxsize=None)
def representatives(n: int) -> np.ndarray:
    """The relation masks on ``n`` worlds that are the smallest of their
    orbit under the n! renamings of the worlds, ascending: one relation
    per isomorphism class, mask 0 first.  Built on first use (at 4 worlds,
    24 renamings of 65 536 masks) and kept; a relation sweep never takes
    more than 4 worlds."""
    masks = np.arange(2 ** (n * n), dtype=np.int64)
    succ = _successors(n, masks)
    smallest = masks.copy()
    for perm in permutations(range(n)):
        # A renamed row: bit perm[j] of row_image[s] is bit j of s.
        row_image = np.array([sum(1 << perm[j] for j in range(n) if s >> j & 1)
                              for s in range(2 ** n)], dtype=np.int64)
        image = sum(row_image[succ[:, i]] << perm[i] * n for i in range(n))
        np.minimum(smallest, image, out=smallest)
    reps = masks[smallest == masks]
    reps.flags.writeable = False
    return reps


def _reach(succ: np.ndarray, depth: int) -> np.ndarray:
    """Bit j of out[r, w]: world j lies within ``depth`` steps of world w
    (w itself at step 0) under the relation of successor bitsets
    ``succ[r]``, shape (relations, n)."""
    n = succ.shape[1]
    reach = np.tile((1 << np.arange(n)).astype(succ.dtype), (len(succ), 1))
    for _ in range(min(depth, n - 1)):  # reach is settled after n - 1 steps
        step = reach.copy()
        for j in range(n):
            step |= (reach >> j & 1) * succ[:, j, None]
        reach = step
    return reach


@lru_cache(maxsize=None)
def _rooted(n: int, depth: int) -> np.ndarray:
    """The ``representatives(n)`` in which some world reaches every world
    within ``depth`` steps, ascending; renaming keeps this property."""
    reps = representatives(n)
    reps = reps[(_reach(_successors(n, reps), depth) == (1 << n) - 1).any(axis=1)]
    reps.flags.writeable = False
    return reps


def sweep(worlds: int | Frame, variables: Sequence[str],
          depth: int | None = None) -> Iterator[BulkSpace]:
    """Every valuation of ``variables`` on one relation per isomorphism
    class over ``worlds`` worlds (``representatives``, ascending), or on
    the one relation of a given ``Frame``, as BulkSpaces over consecutive
    blocks in enumeration order; a block's ``masks`` name its relations.
    With a ``depth``, a sweep over every relation keeps only the classes
    in which some world reaches every world within ``depth`` steps
    (``_rooted``), and yields no block if there is none.

    The size guard runs at the first ``next()``, before anything is
    allocated.  Each block's arrays hold at most ``_CHUNK_CELLS`` cells:
    whole relations while one relation fits, else consecutive valuations of
    one relation (a block never spans two relations).  The atom tables are
    built once; a block's are views of them along the valuation axis."""
    names = tuple(sorted(variables))
    given = isinstance(worlds, Frame)
    n = len(worlds.worlds) if given else worlds
    _guard(worlds, len(names))
    masks = None if given else representatives(n) if depth is None else _rooted(n, depth)
    succ = _successors(worlds, masks)
    if not len(succ):
        return
    atoms = _atom_tables(n, names)
    n_val = 4 ** (n * len(names))
    rel_step = max(1, _CHUNK_CELLS // (n_val * n))
    val_step = max(1, _CHUNK_CELLS // n)
    for r in range(0, len(succ), rel_step):
        for v in range(0, n_val, val_step):
            block = {a: (pos[:, v:v + val_step], neg[:, v:v + val_step])
                     for a, (pos, neg) in atoms.items()}
            space = BulkSpace.__new__(BulkSpace)
            space._bind(n, block, succ[r:r + rel_step],
                        None if given else masks[r:r + rel_step], (r, v))
            yield space
