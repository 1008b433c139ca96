"""Vectorized evaluation over every model on every frame of a fixed size,
or over every valuation on one given frame: the one exhaustive evaluator
(the scalar ``Evaluator`` in ``semantics`` is the independent reference).

The model space for ``n`` worlds over ``k`` variables is the cross product
of all 2^(n*n) relations with all 4^(n*k) valuations; on a given frame it
is that frame's one relation with every valuation.  A sweep over every
relation visits one relation per isomorphism class (``_relation_list``):
validity is invariant under renaming worlds, so the first refuting
relation in ascending mask order is the smallest of its class, and the
sweep finds the labelled scan's first witness.  A sweep given a modal
depth d keeps only the classes rooted and cut at d: some world w reaches
every world within d steps, and every world with a successor lies fewer
than d steps from w.  A formula of depth d at w reads only the worlds
within d steps of w, and only the edges out of those fewer than d steps
away (invariance under generated submodels, cut at depth d).  So once no
smaller model refutes a claim, every refuting relation is rooted at the
refuting world; and the first witness has no edge out of a far world,
since dropping those edges leaves a refuting subset of its mask, which
is no smaller.  The first witness stays where it was.

A formula's two supports are world bitsets: arrays of shape (relations,
valuations), or (1, valuations) where independent of the relation, whose
bit ``w`` means "supported at world ``w``", in the narrowest unsigned type
that holds n bits: ``uint8`` up to 8 worlds, ``uint16`` for the 9 to 12
worlds a given frame may have (relation sweeps stay at n <= 4, the size
guard).  ``~``, ``&``, ``|`` are bitwise, every complement masked to the
low n bits.  ``#`` and ``[]`` read at each world only which successors
support the child's truth and which its falsity, so on n <= 4 worlds
each is a function of the relation and of the child's code
``pos << n | neg``, one of 4^n <= 256 values: a clause table holds, per
relation, the true and false bitsets of both at every code, and a modal
node gathers from it.  The table is built by the per-world pass
(``_clause_pass``), which compares the child's supports within each
world's successor bitset with the bitset itself; a frame of more than 4
worlds keeps that pass over its valuations, whose table would be as large.

A claim is compiled once per search into a numbered program
(``_compile``) that every block of every sweep runs (``BulkSpace._run``):
its distinct subformulas in ``postorder`` order, each an op
``(kind, a, b)`` over the numbers of its children, atoms addressed by
their variable slot.  One pass back over the ops sets the supports each
node must yield: a root its truth, which is all ``_refuting`` reads;
``~`` the other support of its child, ``&`` and ``|`` what is asked of
them, and ``#`` and ``[]`` both supports of their child, whose code they
gather at.  So ``&`` and ``|`` compute only their demanded halves, a
modal node gathers only its demanded rows of the clause table, and the
per-world pass computes only the demanded bitsets.  The same pass records
the values each op reads last, which the run drops after it; the roots
are kept.  A block then holds only the values still to be read.

What a space reads of its relations is one read-only record
(``_RelationList``): their masks, their successor bitsets and their clause
table, built the first time a modal node asks for it.  The record also
holds the frame-property vectors a definability check compares the sweep
against, one per predicate, built the first time a check asks for it, at
most 3 044 bytes each (``holds``).  A relation sweep's record is kept per
process, world count and depth (``_relation_list``), its bitsets decoded
from the masks, so those vectors are built once per process; a given
frame's sweep builds its own from ``Frame.succ`` (whose mask would not
fit 64 bits from 8 worlds on), as does a ``BulkSpace``, and a sweep's
blocks read their rows of one record.  The atom tables, every variable's
two supports at each valuation, depend only on the world and variable
counts.  A sweep reads them from one table per shape, built once per
process and kept read-only (``_atom_tables``): the atoms of the ``L``
least significant slots, where 4^L is the largest power of 4 within
``_BLOCK_PAIRS`` (L = 10), or of every slot of a smaller shape, which its
blocks read whole.  A larger shape is read in aligned blocks of 4^L
valuations of one relation, which fix its high digits: a block's atoms
are that table OR'ed with the supports read off its high digits alone.
A table holds at most 4^L valuations of 2k bitsets, 131 MiB for every
admissible shape together.

What a scan costs and how its space is laid out are known only to this
module: ``_guard`` refuses a scan before anything is allocated, from its
world count or its given frame, and ``sweep`` reads the space in blocks
of at most ``_BLOCK_PAIRS`` (relation, valuation) pairs, the size of every
array a block allocates and of every gather's indices, so a caller can
stop at the first block that settles its question.  ``semantics`` and
``analysis`` go through ``_compile``, ``_guard``, ``sweep``,
``model_from_indices``, ``frame_from_mask`` and, for the frame properties
of a definability sweep, the vectors ``holds`` of the record
``_relation_list(n, None)`` that its sweeps read; they read a claim's
variables and modal depth off its program.  A space over chosen relation
masks, ``BulkSpace(n, variables, masks)``, is for labelled scans outside
the sweeps (the tests' references and the benchmark's probes), one block
however large, and builds its own atom tables and record, uncached:

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
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .semantics import VALUE_ORDER, BoundExceededError, Frame, Model
from .syntax import And, Atom, Formula, Not, Or, Sequent, Tri, postorder

__all__ = ["BulkSpace", "sweep", "model_from_indices", "frame_from_mask",
           "DEFAULT_VALUATION_BOUND"]

DEFAULT_VALUATION_BOUND = 12  # (world, variable) valuation slots one scan may take
# (relation, valuation, world) cells one sweep over every relation may
# visit: 2x6 (5.4e8) and 3x3 (4.0e8) fit, 3x4 (2.6e10) does not.
_MAX_SWEEP_CELLS = 10 ** 9
# (relation, valuation) pairs of one block: at most 1 MiB per uint8 array
# (2 MiB per uint16), and 8 MiB of 8-byte indices per gather.
_BLOCK_PAIRS = 1 << 20
_TABLE_WORLDS = 4  # most worlds whose clause table (4^n codes per relation) is built

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
    """Decode one point of the enumeration: relation mask, valuation index.
    Each slot's base-4 digit, the least significant last, sets its world's
    bit in its variable's two supports."""
    frame = frame_from_mask(world_count, rel_mask)
    names = sorted(set(vars))
    k = len(names)
    val = {name: [0, 0] for name in names}
    for s in reversed(range(world_count * k)):
        w, j = divmod(s, k)
        truth, falsity = VALUE_ORDER[val_index & 3].value
        val_index >>= 2
        pair = val[names[j]]
        pair[0] |= truth << w
        pair[1] |= falsity << w
    model = Model.__new__(Model)
    model._store(frame, val, None)
    return model


def _bitset_type(n: int) -> type:
    """The narrowest unsigned type with one bit per world of ``n``."""
    return np.uint8 if n <= 8 else np.uint16


def _build_atoms(n: int, k: int, first: int = 0, last: int | None = None) -> np.ndarray:
    """Both supports of each of ``k`` atoms as world bitsets, read off the
    valuation slots from ``first`` up to ``last`` (default: every slot on)
    alone, shape (k, 2, 1, 4^(last - first)), built by broadcasting each
    slot's digit pattern into its world's bit."""
    slots = (n * k if last is None else last) - first
    dtype = _bitset_type(n)
    digits = _DIGIT_SUPPORTS.astype(dtype, copy=False)
    world_bits = digits[:, None, :] << np.arange(n, dtype=dtype)[:, None]
    tables = np.zeros((k, 2) + (4,) * slots, dtype=dtype)
    for i in range(slots):
        w, j = divmod(first + i, k)
        tables[j] |= world_bits[:, w].reshape((2,) + (1,) * i + (4,) + (1,) * (slots - 1 - i))
    return tables.reshape(k, 2, 1, -1)


@lru_cache(maxsize=None)
def _atom_tables(n: int, k: int, low: int) -> np.ndarray:
    """The atoms of the ``low`` least significant of ``n * k`` slots
    (``_build_atoms``), built on first use and kept, read-only."""
    tables = _build_atoms(n, k, n * k - low)
    tables.flags.writeable = False
    return tables


class _Program(NamedTuple):
    """A claim compiled once for every block of every sweep (``_compile``).

    ``ops[i]`` is ``(kind, a, b)``: ``kind`` the formula class of the i-th
    distinct subformula in ``postorder``, ``a`` its variable slot in
    ``names`` if an atom, else the number of its (left) child, and ``b``
    the number of its right child, or -1.  ``demand[i]`` holds bit 1 if the
    node's truth support is read and bit 2 if its falsity support is;
    ``frees[i]``, the numbers of the values op i reads last, which the run
    drops after it.  ``roots`` are the premise's and the conclusion's
    numbers (``sequent``), or the formula's; ``depth`` is the claim's modal
    depth."""

    names: tuple[str, ...]
    depth: int
    ops: list[tuple[type, int, int]]
    demand: list[int]
    frees: list[tuple[int, ...]]
    roots: tuple[int, ...]
    sequent: bool


def _compile(claim: Sequent | Formula, names: Sequence[str] | None = None,
             demand: int = 1) -> _Program:
    """The program of ``claim`` over the sorted variables ``names``
    (default: the claim's own), whose roots yield the supports in
    ``demand``: the truth alone (1), as ``_refuting`` reads, or both (3).

    One pass forward numbers the nodes; one pass back, over every node after
    all its parents, sets what each must yield and where its value is read
    last.  A root yields ``demand``; ``~`` swaps its demand for its child's,
    ``&`` and ``|`` pass theirs on to both children, and ``#`` and ``[]``
    read both supports of their child, whose code they gather at.  Roots
    are never dropped."""
    sequent = isinstance(claim, Sequent)
    order = postorder(*((claim.premise, claim.conclusion) if sequent else (claim,)))
    if names is None:
        names = sorted({g.name for g in order if type(g) is Atom})
    slot = {name: j for j, name in enumerate(names)}
    index: dict[Formula, int] = {}
    ops: list[tuple[type, int, int]] = []
    depths: list[int] = []
    for g in order:
        kind = type(g)
        if kind is Atom:
            if g.name not in slot:
                raise KeyError(f"variable {g.name!r} not in this space")
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
        need[r], read[r] = demand, True
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
                 else np.array(rel_masks, dtype=np.int64))
        self._bind(n_worlds, names, _build_atoms(n_worlds, len(names)),
                   _RelationList(masks, _successors(n_worlds, masks)))

    def _bind(self, n: int, names: tuple[str, ...], atoms: np.ndarray,
              relations: _RelationList, rows=slice(None), start=(0, 0)) -> None:
        """The relations ``rows`` of ``relations``: ``succ[r, w]`` has bit j
        set iff relation r contains (w, j), and a modal node reads these
        rows of the record's clause table.  ``atoms[j]`` holds both
        supports of the j-th of ``names`` over this space's valuations."""
        self.n = n
        self.names = names
        self.start = start
        self.succ = relations.succ[rows]
        self.masks = None if relations.masks is None else relations.masks[rows]
        self.full = self.succ.dtype.type((1 << n) - 1)
        self._atoms = atoms
        self._relations, self._rows = relations, rows
        self._table: np.ndarray | None = None

    def _run(self, program: _Program) -> list:
        """The values of ``program`` on this space: per op, its two supports
        as world bitsets, None where not demanded; every value but the
        roots' is dropped after its last reader."""
        if program.names != self.names:
            raise ValueError(f"a program over {program.names} on a space over {self.names}")
        atoms = self._atoms
        vals: list = [None] * len(program.ops)
        for i, ((kind, a, b), want, free) in enumerate(
                zip(program.ops, program.demand, program.frees)):
            if kind is Atom:
                res = atoms[a, 0], atoms[a, 1]
            elif kind is Not:
                pos, neg = vals[a]
                res = neg, pos
            elif kind is And:
                (lp, ln), (rp, rn) = vals[a], vals[b]
                res = lp & rp if want & 1 else None, ln | rn if want & 2 else None
            elif kind is Or:
                (lp, ln), (rp, rn) = vals[a], vals[b]
                res = lp | rp if want & 1 else None, ln & rn if want & 2 else None
            else:
                res = self._modal(kind is Tri, *vals[a], want)
            vals[i] = res
            for c in free:
                vals[c] = None
        return vals

    def _modal(self, tri: bool, pos: np.ndarray, neg: np.ndarray,
               want: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The supports in ``want`` (bit 1 truth, bit 2 falsity; None for the
        other) of ``#`` (``tri``) or ``[]`` over a formula of supports
        ``pos``, ``neg``: the clause table's demanded rows gathered at the
        codes ``pos << n | neg`` (``_gather``).  Beyond ``_TABLE_WORLDS``
        worlds, the per-world pass instead."""
        if self.n > _TABLE_WORLDS:
            return _clause_pass(tri, self.succ, pos, neg, want)
        if self._table is None:
            self._table = self._relations.table()[:, :, self._rows]
        code = pos << self.n
        code |= neg
        first, last = (0 if want & 1 else 1), (2 if want & 2 else 1)
        rows = _gather(self._table[0 if tri else 1, first:last], code)
        return rows[0] if want & 1 else None, rows[-1] if want & 2 else None

    def _refuting(self, claim: Sequent | Formula | _Program) -> np.ndarray:
        """Bitsets of the worlds where the premise is supported-true and the
        conclusion is not, or a formula claim is not supported-true; a
        claim is compiled over this space's variables first."""
        program = claim if isinstance(claim, _Program) else _compile(claim, self.names)
        vals = self._run(program)
        if program.sequent:
            premise, conclusion = program.roots
            return vals[premise][0] & ~vals[conclusion][0]
        return ~vals[program.roots[0]][0] & self.full

    def first_countermodel(self, s: Sequent | _Program) -> tuple[int, int, int] | None:
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

    def valid_per_relation(self, claim: Sequent | Formula | _Program) -> np.ndarray:
        """Boolean vector over this space's relations: the claim holds at
        every valuation and world of that frame."""
        ok = ~self._refuting(claim).any(axis=1)
        return np.broadcast_to(ok, (len(self.succ),))


def _clause_pass(tri: bool, succ: np.ndarray, pos: np.ndarray, neg: np.ndarray,
                 want: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The supports in ``want`` (bit 1 truth, bit 2 falsity; None for the
    other) of ``#`` (``tri``) or ``[]`` on the relations of successor
    bitsets ``succ``, shape (relations, n), over a formula of supports
    ``pos``, ``neg``: one pass per world w, on the successor bitset s of w
    and its members ps, ns that support the truth and the falsity, with the
    cases of ``semantics.tri_clause`` and ``box_clause``: "some" is
    ``!= 0``, "all" is ``== s``."""
    dtype = succ.dtype
    shape = (len(succ), pos.shape[1])
    true = np.zeros(shape, dtype=dtype) if want & 1 else None
    false = np.zeros(shape, dtype=dtype) if want & 2 else None
    for w in range(succ.shape[1]):
        s = succ[:, w, None]
        if tri:
            # True: no split on a support and no unvalued successor.  False: a
            # split (some but not all successors support the truth, or the
            # falsity), or one successor supports the truth while one the falsity.
            ps, ns = pos & s, neg & s
            any_p, any_n = ps != 0, ns != 0
            split = (any_p & (ps != s)) | (any_n & (ns != s))
            if want & 1:
                t = (ps | ns) == s
                t &= ~split
            if want & 2:
                f = split | (any_p & any_n)
        else:
            if want & 1:
                t = (pos & s) == s
            if want & 2:
                f = (neg & s) != 0
        if want & 1:
            true |= t.view(np.uint8).astype(dtype, copy=False) << w
        if want & 2:
            false |= f.view(np.uint8).astype(dtype, copy=False) << w
    return true, false


def _clause_table(succ: np.ndarray) -> np.ndarray:
    """The clause table of the relations of successor bitsets ``succ``,
    shape (relations, n): ``table[m, x, r, c]`` is the bitset of the worlds
    where ``#`` (m = 0) or ``[]`` (m = 1) of a formula of code ``c``
    (truth bitset ``c >> n``, falsity bitset ``c & (2^n - 1)``) is
    supported true (x = 0) or false (x = 1) under relation ``r``.  Read-only."""
    n = succ.shape[1]
    codes = np.arange(4 ** n, dtype=succ.dtype)[None]
    table = np.array([_clause_pass(tri, succ, codes >> n, codes & (1 << n) - 1, 3)
                      for tri in (True, False)])
    table.flags.writeable = False
    return table


def _gather(tables: np.ndarray, code: np.ndarray) -> np.ndarray:
    """``tables[x, r, code[r, v]]`` for each row x of ``tables``, of shape
    (rows, relations, codes), each row's relations contiguous: shape
    (rows, relations, valuations).  A relation-independent ``code`` (one
    row) is one index along the codes of every relation's row; otherwise
    each relation reads its own row, at ``r * codes + code[r, v]`` of the
    flattened row.  ``ndarray.take`` (not the ``np.take`` wrapper, which
    costs a Python-level dispatch per call) widens its indices to 8 bytes,
    so a block of at most ``_BLOCK_PAIRS`` pairs takes at most 8 MiB of
    them; they are always in range, and ``mode="clip"`` lets it write
    straight into the result."""
    _, rels, width = tables.shape
    out = np.empty((len(tables), rels, code.shape[1]), dtype=tables.dtype)
    if len(code) == 1:
        at = code[0].astype(np.intp)
        for table, res in zip(tables, out):
            table.take(at, axis=1, out=res, mode="clip")
    else:
        at = code + (np.arange(rels) * width)[:, None]
        for table, res in zip(tables, out):
            table.ravel().take(at, out=res, mode="clip")
    return out


def _successors(n: int, rel_masks: np.ndarray) -> np.ndarray:
    """Successor bitsets, shape (relations, n), of ``rel_masks`` on ``n`` worlds."""
    return (rel_masks[:, None] >> n * np.arange(n) & (1 << n) - 1).astype(_bitset_type(n))


class _RelationList:
    """The relations one sweep or space reads, read-only: their masks
    (None on a given frame), their successor bitsets ``succ``, shape
    (relations, n), their clause table, built the first time a modal node
    asks for it (``table``), and one frame-property vector per predicate,
    built the first time a definability check asks for it (``holds``), of
    one byte per relation (at most 3 044 bytes)."""

    __slots__ = ("masks", "succ", "_table", "_holds")

    def __init__(self, masks: np.ndarray | None, succ: np.ndarray):
        for array in (masks, succ):
            if array is not None:
                array.flags.writeable = False
        self.masks, self.succ = masks, succ
        self._table: np.ndarray | None = None
        self._holds: dict[Callable, np.ndarray] = {}

    def table(self) -> np.ndarray:
        """The ``_clause_table`` of these relations, built once."""
        if self._table is None:
            self._table = _clause_table(self.succ)
        return self._table

    def holds(self, predicate: Callable) -> np.ndarray:
        """Bool vector over these relations: ``predicate`` (a
        ``semantics.FRAME_PROPERTIES`` entry, on a relation's successor
        bitsets) holds of that relation.  Built once per predicate object,
        read-only."""
        has = self._holds.get(predicate)
        if has is None:
            has = np.array([predicate(s) for s in self.succ.tolist()], dtype=bool)
            has.flags.writeable = False
            self._holds[predicate] = has
        return has


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
def _relation_list(n: int, depth: int | None) -> _RelationList:
    """The relations a sweep over ``n`` worlds reads, built on first use and
    kept (at most 3 044, each with 256 codes x 4 bytes of clause table and
    one byte in each frame-property vector).
    Without a ``depth``, the masks that are the smallest of their orbit
    under the n! renamings of the worlds, ascending: one per isomorphism
    class, mask 0 first.  With one, those in which some world w reaches
    every world within ``depth`` steps (rooted) and every world with a
    successor lies within ``depth`` - 1 steps of w, none at depth 0 (cut),
    which renaming keeps.  The first refuting mask of a claim of that
    depth is rooted and cut at its refuting world: dropping its edges out
    of the worlds ``depth`` or more steps away leaves a refuting subset of
    it, so there are none.  Every depth from n on gives the same list, so
    ``sweep`` asks for at most that one; depth n - 1 still cuts."""
    if depth is None:
        masks = np.arange(2 ** (n * n), dtype=np.int64)
        succ = _successors(n, masks)
        smallest = masks.copy()
        for perm in permutations(range(n)):
            # A renamed row: bit perm[j] of row_image[s] is bit j of s.
            row_image = np.array([sum(1 << perm[j] for j in range(n) if s >> j & 1)
                                  for s in range(2 ** n)], dtype=np.int64)
            image = sum(row_image[succ[:, i]] << perm[i] * n for i in range(n))
            np.minimum(smallest, image, out=smallest)
        masks = masks[smallest == masks]
    else:
        every = _relation_list(n, None)
        rooted = _reach(every.succ, depth) == (1 << n) - 1
        # Bit w of senders: world w has a successor; each must be near the root.
        senders = sum((every.succ[:, w] != 0).astype(np.uint8) << w for w in range(n))
        near = _reach(every.succ, depth - 1) if depth else 0
        cut = (senders[:, None] | near) == near
        masks = every.masks[(rooted & cut).any(axis=1)]
    return _RelationList(masks, _successors(n, masks))


def sweep(worlds: int | Frame, variables: Sequence[str],
          depth: int | None = None) -> Iterator[BulkSpace]:
    """Every valuation of ``variables`` on one relation per isomorphism
    class over ``worlds`` worlds (``_relation_list``, ascending), or on
    the one relation of a given ``Frame``, as BulkSpaces over consecutive
    blocks in enumeration order; a block's ``masks`` name its relations.
    With a ``depth``, a sweep over every relation keeps only the classes
    rooted and cut at ``depth`` (``_relation_list``): some world w reaches
    every world within ``depth`` steps, and no edge leaves a world
    ``depth`` or more steps from w, as the first countermodel of a claim
    of that depth never has one.  It yields no block if no class is kept.

    The size guard runs at the first ``next()``, before anything is
    allocated.  Each block holds at most ``_BLOCK_PAIRS`` (relation,
    valuation) pairs: whole relations while one relation's valuations fit,
    else aligned blocks of 4^L valuations of one relation, 4^L the largest
    power of 4 within the budget (a block never spans two relations).  The
    atom tables of the low min(n*k, L) slots are built once per process
    per shape (``_atom_tables``): a block of every valuation reads them
    whole, and a block that fixes the high digits ORs them with the
    supports those digits set, read off the sweep's own table of the high
    slots (at most 16 entries at the default budget).  Every block reads
    its rows of one relation record: ``_relation_list(n, depth)``, built
    once per process, or a given frame's own, built once per sweep; a
    block's successor bitsets and clause table rows are views of the
    record's.  Every cached array is read-only."""
    names = tuple(sorted(variables))
    given = isinstance(worlds, Frame)
    n = len(worlds.worlds) if given else worlds
    _guard(worlds, len(names))
    if depth is not None:
        depth = min(depth, n)  # every depth from n on keeps the same classes
    relations = (_RelationList(None, np.array([worlds.succ], dtype=_bitset_type(n))) if given
                 else _relation_list(n, depth))
    if not len(relations.succ):
        return
    slots = n * len(names)
    low = min(slots, (_BLOCK_PAIRS.bit_length() - 1) // 2)  # 4^low <= _BLOCK_PAIRS
    atoms = _atom_tables(n, len(names), low)
    step, n_val = 4 ** low, 4 ** slots
    high = _build_atoms(n, len(names), 0, slots - low) if step < n_val else None
    rel_step = max(1, _BLOCK_PAIRS // n_val)
    for r in range(0, len(relations.succ), rel_step):
        for v in range(0, n_val, step):
            space = BulkSpace.__new__(BulkSpace)
            space._bind(n, names, atoms if high is None else atoms | high[..., v // step, None],
                        relations, slice(r, r + rel_step), (r, v))
            yield space
