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
(``_compile``) that every block of a space runs (``BulkSpace._run``):
its distinct subformulas as ``syntax._number`` numbers them, children
first, each an op ``(kind, a, b)`` over the numbers of its children,
atoms addressed by their variable slot.  One pass back over the ops sets
the supports each node must yield: a root its truth, which is all
``_refuting`` reads; ``~`` the other support of its child, ``&`` and
``|`` what is asked of them, and ``#`` and ``[]`` both supports of their
child, whose code they gather at.  So ``&`` and ``|`` compute only their demanded halves, a
modal node gathers only its demanded rows of the clause table, and the
per-world pass computes only the demanded bitsets.  The same pass records
the values each op reads last, which the run drops after it; the roots
are kept.  A block then holds only the values still to be read.

A space (``BulkSpace``) is every pointed model over one relation record
and one variable list.  The record (``_RelationList``) is read-only: its
relations' masks, their successor bitsets and their clause table, built
the first time a modal node asks for it.  The record also holds the
frame-property vectors a definability check compares the sweep against,
one per predicate, built the first time a check asks for it, at most
3 044 bytes each (``holds``), and the ``Frame`` of each relation a
witness lands on, decoded the first time one does (``frame``).  A
relation sweep's record is kept per process, world count and depth
(``_relation_list``), its bitsets decoded from the masks, so those
vectors and frames are built once per process; a given frame's sweep
builds its own from ``Frame.succ`` (whose mask would not fit 64 bits from
8 worlds on), as does a labelled space over chosen masks.
The atom tables, every variable's two supports at each valuation, depend
only on the world and variable counts.  Every space reads them from one
table per shape, built once per process and kept read-only
(``_atom_tables``): the atoms of the ``L`` least significant slots, where
4^L is the largest power of 4 within ``_BLOCK_PAIRS`` (L = 10), or of
every slot of a smaller shape, which its blocks read whole.  A larger
shape is read in aligned blocks of 4^L valuations of one relation, which
fix its high digits: a block's atoms are that table OR'ed with the
supports read off its high digits alone.  A table holds at most 4^L
valuations of 2k bitsets, 131 MiB for every admissible shape together.

A space binds its variable names to a plan (``_Plan``): its world and
variable counts, its record and its block layout under one block budget,
built whole at construction.  A relation sweep's plan is kept per process
and shape ``(n, k, min(depth, n))`` and block budget (``_plan``), so the
searches of one shape share it under any names: a program addresses
atoms by slot, not by name.  A plan of a shape read in one block keeps
that block, with each slot's ``(pos, neg)`` views of its atoms.  A
given frame's sweep and a labelled space build their own plan, uncached.
What a process keeps is bounded by the guard: a plan per admissible
shape (n * k <= 12, at most 10^9 labelled cells, depth <= n) and budget,
a record per world count and depth, at most 3 044 frames per record and
an atom table per shape.

What a scan costs and how its space is laid out are known only to this
module: ``_guard`` refuses a scan before anything is allocated, from its
world count or its given frame, once per shape of a relation sweep (when
its plan is built), and ``_Plan``, the one place that lays out blocks,
reads a space in blocks of at most ``_BLOCK_PAIRS`` (relation, valuation)
pairs as read when the plan is built, the size of every array a block
allocates and of every gather's indices.  A space's answers are space-wide:
``first_countermodel`` stops at the first block that refutes the claim,
and ``valid_per_relation`` fills one vector over every block.
``semantics`` and ``analysis`` go through ``_compile``, ``_guard``,
``sweep``, ``BulkSpace.frame`` and ``_model_on`` (a witness's model on
its record's frame) and, for the frame properties of a definability
sweep, the vectors ``holds`` and the frames of the record
``_relation_list(n, None)`` that its sweeps read; they read a claim's
variables and modal depth off its program, and no block.
``model_from_indices`` and ``frame_from_mask`` decode any point of the
enumeration and refuse one outside it.  A space over chosen relation
masks, ``BulkSpace(n, variables, masks)``, is for labelled scans outside
the sweeps (the tests' references and the benchmark's probes); it refuses
a mask outside the enumeration or not an integer, builds its own record,
uncached, and reads the same blocks and atom tables as a sweep:

* relation ``r`` contains the pair (i, j) iff bit ``i*n + j`` of the mask
  is set; a sweep enumerates the class representatives ascending, and
  a labelled space the masks it is given (default: every mask, ascending);
* valuation slots are (world, variable) pairs, worlds outermost (in frame
  order) and the distinct variable names in sorted order; slot 0 is the
  most significant base-4 digit of the valuation index; digit values
  0..3 mean T, B, N, F.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .semantics import VALUE_ORDER, BoundExceededError, Frame, Model
from .syntax import And, Atom, Formula, Not, Or, Sequent, Tri, _number

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
    enumerated (read by ``_integer``), or a given frame, which is one
    relation."""
    given = isinstance(worlds, Frame)
    world_count = len(worlds.worlds) if given else _integer(worlds)
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


def _integer(value: int, name: str = "a world count") -> int:
    """``value``, the argument ``name``, read by ``operator.index``: a numpy
    integer is an integer, and a float or a string is refused with a
    ``TypeError`` that names the argument and the value's type, before
    numpy, a comparison, a shift or ``range`` reads it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} is an integer, not {type(value).__name__}") from None


def _check_index(what: str, index: int, count: int) -> int:
    """``index`` read by ``_integer``, refused if it is outside ``[0,
    count)``: a decoder would read another point, or a bit that no slot
    holds, instead."""
    index = _integer(index, what)
    if not 0 <= index < count:
        raise ValueError(f"{what} {index} is outside [0, {count})")
    return index


def _mask_array(rel_masks: Sequence[int], count: int) -> np.ndarray:
    """``rel_masks`` as int64 relation masks, each refused unless it is an
    integer in ``[0, count)``.  An integer array is checked whole.  Numpy
    makes floats, strings or objects (an integer past 64 bits) of any other
    input, so that is checked mask by mask as given: none is truncated,
    parsed or overflows."""
    masks = np.asarray(rel_masks)
    if masks.dtype.kind not in "iu":
        checked = []
        for m in rel_masks.tolist() if isinstance(rel_masks, np.ndarray) else rel_masks:
            try:
                m = operator.index(m)
            except TypeError:
                raise ValueError(f"relation mask {m!r} is not an integer") from None
            _check_index("relation mask", m, count)
            checked.append(m)
        return np.array(checked, dtype=np.int64)
    outside = (masks < 0) | (masks >= count)
    if outside.any():
        _check_index("relation mask", int(masks[outside.argmax()]), count)
    return masks.astype(np.int64, copy=False)


def frame_from_mask(n_worlds: int, rel_mask: int) -> Frame:
    """The frame on worlds ``w0 .. w{n-1}`` whose relation is ``rel_mask``,
    one of the 2^(n*n) masks."""
    n = _integer(n_worlds)
    rel_mask = _check_index("relation mask", rel_mask, 2 ** (n * n))
    worlds = tuple(f"w{i}" for i in range(n))
    return Frame(worlds, [(worlds[i], worlds[j])
                          for i in range(n) for j in range(n) if rel_mask >> (i * n + j) & 1])


def model_from_indices(world_count: int, vars: Sequence[str],
                       rel_mask: int, val_index: int) -> Model:
    """Decode one point of the enumeration: relation mask, valuation index
    (one of the 4^(n*k) valuations of the k distinct names of ``vars``)."""
    names = sorted(set(vars))
    world_count = _integer(world_count)
    val_index = _check_index("valuation index", val_index, 4 ** (world_count * len(names)))
    return _model_on(frame_from_mask(world_count, rel_mask), names, val_index)


def _model_on(frame: Frame, names: Sequence[str], val_index: int) -> Model:
    """The model on ``frame`` of valuation ``val_index`` over the sorted,
    distinct ``names``.  Each slot's base-4 digit, the least significant
    last, sets its world's bit in its variable's two supports."""
    world_count, k = len(frame.worlds), len(names)
    val = dict.fromkeys(names, (0, 0))
    for s in reversed(range(world_count * k)):
        w, j = divmod(s, k)
        truth, falsity = VALUE_ORDER[val_index & 3].value
        val_index >>= 2
        pos, neg = val[names[j]]
        val[names[j]] = pos | truth << w, neg | falsity << w
    return Model._of(frame, val)


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
    """A claim compiled once for every block of every space (``_compile``).

    ``ops[i]`` is ``(kind, a, b)``: ``kind`` the formula class of the
    claim's distinct subformula ``i`` as ``syntax._number`` numbers them,
    ``a`` its variable slot in ``names`` if an atom, else the number of its
    (left) child, and ``b`` the number of its right child, or -1.
    ``demand[i]`` holds bit 1 if the node's truth support is read and bit 2
    if its falsity support is; ``frees[i]``, the numbers of the values op i
    reads last, which the run drops after it.  ``roots`` are the premise's
    and the conclusion's numbers (``sequent``), or the formula's; ``depth``
    is the claim's modal depth, the most ``#`` and ``[]`` nodes above any
    node."""

    names: tuple[str, ...]
    depth: int
    ops: list[tuple[type, int, int]]
    demand: list[int]
    frees: list[tuple[int, ...]]
    roots: tuple[int, ...]
    sequent: bool


def _compile(claim: Sequent | Formula, names: Sequence[str] | None = None) -> _Program:
    """The program of ``claim`` over the sorted variables ``names``
    (default: the claim's own), whose roots yield their truth, all that
    ``_refuting`` reads.

    ``syntax._number`` numbers the nodes, children first; one pass back,
    over every node after all its parents, sets an atom's slot, what each
    node must yield and where its value is read last, and the most ``#``
    and ``[]`` nodes above it, whose largest is the claim's modal depth.  A
    root yields its truth; ``~`` swaps its demand for its child's, ``&``
    and ``|`` pass theirs on to both children, and ``#`` and ``[]`` read
    both supports of their child, whose code they gather at.  Roots are
    never dropped.  A variable that is not in ``names`` is refused."""
    sequent = isinstance(claim, Sequent)
    formulas, ops, roots = _number(*((claim.premise, claim.conclusion) if sequent else (claim,)))
    if names is None:
        names = sorted(f.name for f in formulas if type(f) is Atom)
    slot = {name: j for j, name in enumerate(names)}
    need = [0] * len(ops)
    read = [False] * len(ops)
    above = [0] * len(ops)  # the most modal nodes above each node
    frees: list[tuple[int, ...]] = [()] * len(ops)
    for r in roots:
        need[r], read[r] = 1, True
    for i in range(len(ops) - 1, -1, -1):
        kind, a, b = ops[i]
        if kind is Atom:
            j = slot.get(formulas[i].name)
            if j is None:
                raise ValueError(f"variable {formulas[i].name!r} not in this space")
            ops[i] = (kind, j, -1)
            continue
        want, up = need[i], above[i]
        if kind is Not:
            need[a] |= (want & 1) << 1 | want >> 1
        elif b >= 0:
            need[a] |= want
            need[b] |= want
            above[b] = max(above[b], up)
        else:
            need[a] = 3
            up += 1
        above[a] = max(above[a], up)
        if not read[a]:
            read[a] = True
            frees[i] = (a,)
        if b >= 0 and not read[b]:
            read[b] = True
            frees[i] += (b,)
    return _Program(tuple(names), max(above), ops, need, frees, roots, sequent)


class BulkSpace:
    """Every pointed model over one relation record and every valuation of
    ``variables`` on ``n_worlds`` worlds: the relations of the given masks
    (default: every mask, ascending), or those of a ``sweep``.  ``masks[r]``
    is the mask of relation ``r``, None on a given frame; ``succ[r, w]`` has
    bit j set iff relation r contains (w, j).  A space is its variable
    names bound to a plan (``_Plan``), which holds the record and the block
    layout under ``_BLOCK_PAIRS`` as read when the space is made; the space
    is read in the plan's blocks (``_blocks``), and its answers are
    space-wide."""

    def __init__(self, n_worlds: int, variables: Sequence[str],
                 rel_masks: Sequence[int] | None = None):
        names = tuple(sorted(set(variables)))
        _guard(n_worlds, len(names))
        count = 2 ** (n_worlds * n_worlds)
        masks = np.arange(count) if rel_masks is None else _mask_array(rel_masks, count)
        record = _RelationList(masks, _successors(n_worlds, masks))
        self._bind(names, _Plan(n_worlds, len(names), record, _BLOCK_PAIRS))

    def _bind(self, names: tuple[str, ...], plan: _Plan) -> None:
        """Every relation of ``plan`` with every valuation of ``names``."""
        self.n = plan.n
        self.names = names
        self.full = plan.full
        self._plan = plan
        self._relations = plan.record
        self.succ, self.masks = plan.record.succ, plan.record.masks

    def frame(self, r: int) -> Frame:
        """The frame of relation ``r`` (``_RelationList.frame``)."""
        return self._relations.frame(r)

    def _blocks(self) -> Iterator[tuple[slice, int, np.ndarray]]:
        """The blocks this space is read in (``_Plan.blocks``)."""
        return self._plan.blocks()

    def _run(self, block: tuple[slice, int, np.ndarray], program: _Program) -> list:
        """The values of ``program`` on ``block``: per op, its two supports
        as world bitsets, None where not demanded; every value but the
        roots' is dropped after its last reader."""
        if program.names != self.names:
            raise ValueError(f"a program over {program.names} on a space over {self.names}")
        atoms = self._plan.atom_views(block)
        vals: list = [None] * len(program.ops)
        for i, ((kind, a, b), want, free) in enumerate(
                zip(program.ops, program.demand, program.frees)):
            if kind is Atom:
                res = atoms[a]
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
                res = self._modal(block, kind is Tri, *vals[a], want)
            vals[i] = res
            for c in free:
                vals[c] = None
        return vals

    def _modal(self, block: tuple[slice, int, np.ndarray], tri: bool, pos: np.ndarray,
               neg: np.ndarray, want: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The supports in ``want`` (bit 1 truth, bit 2 falsity; None for the
        other) of ``#`` (``tri``) or ``[]`` over a formula of supports
        ``pos``, ``neg`` on ``block``: the demanded rows of the block's
        relations in the record's clause table, gathered at the codes
        ``pos << n | neg`` (``_gather``).  Beyond ``_TABLE_WORLDS`` worlds,
        the per-world pass instead."""
        rows = block[0]
        if self.n > _TABLE_WORLDS:
            return _clause_pass(tri, self.succ[rows], pos, neg, want)
        code = pos << self.n
        code |= neg
        first, last = (0 if want & 1 else 1), (2 if want & 2 else 1)
        got = _gather(self._relations.table()[0 if tri else 1, first:last, rows], code)
        return got[0] if want & 1 else None, got[-1] if want & 2 else None

    def _refuting(self, block: tuple[slice, int, np.ndarray], program: _Program) -> np.ndarray:
        """Bitsets of the worlds of ``block`` where the premise is
        supported-true and the conclusion is not, or a formula claim is not
        supported-true."""
        vals = self._run(block, program)
        if program.sequent:
            premise, conclusion = program.roots
            return vals[premise][0] & ~vals[conclusion][0]
        return ~vals[program.roots[0]][0] & self.full

    def first_countermodel(self, claim: Sequent | Formula | _Program
                           ) -> tuple[int, int, int] | None:
        """Indices (relation, valuation, world) of the first pointed model
        that refutes ``claim`` (``_refuting``; compiled over this space's
        variables first), in enumeration order: the first nonzero bitset of
        the first refuting block, then its lowest bit.  None if the claim
        holds throughout.  A relation-independent block has a singleton
        relation axis, so its countermodel lies on the block's first
        relation."""
        program = claim if isinstance(claim, _Program) else _compile(claim, self.names)
        for block in self._blocks():
            bad = self._refuting(block, program)
            flat = int((bad != 0).argmax())
            bits = int(bad.flat[flat])
            if bits:
                r, v = divmod(flat, bad.shape[1])
                return block[0].start + r, block[1] + v, (bits & -bits).bit_length() - 1
        return None

    def valid_per_relation(self, claim: Sequent | Formula | _Program) -> np.ndarray:
        """Boolean vector over this space's relations: the claim holds at
        every valuation and world of that frame."""
        program = claim if isinstance(claim, _Program) else _compile(claim, self.names)
        valid = np.ones(len(self.succ), dtype=bool)
        for block in self._blocks():
            valid[block[0]] &= ~self._refuting(block, program).any(axis=1)
        return valid


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
    asks for it (``table``), one frame-property vector per predicate,
    built the first time a definability check asks for it (``holds``), of
    one byte per relation (at most 3 044 bytes), and the ``Frame`` of each
    relation a witness lands on (``frame``)."""

    __slots__ = ("masks", "succ", "_table", "_holds", "_frames")

    def __init__(self, masks: np.ndarray | None, succ: np.ndarray):
        for array in (masks, succ):
            if array is not None:
                array.flags.writeable = False
        self.masks, self.succ = masks, succ
        self._table: np.ndarray | None = None
        self._holds: dict[Callable, np.ndarray] = {}
        self._frames: dict[int, Frame] = {}

    def frame(self, r: int) -> Frame:
        """The frame of relation ``r`` (``frame_from_mask``), decoded the
        first time it is asked for and kept: a ``Frame`` is immutable, so
        every witness on relation r shares it.  Only a record with masks
        has one."""
        frame = self._frames.get(r)
        if frame is None:
            _check_index("relation", r, len(self.succ))
            frame = self._frames[r] = frame_from_mask(self.succ.shape[1], int(self.masks[r]))
        return frame

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
    which renaming keeps: the only masks that can be the first refuting
    mask of a claim of that depth (see the module docstring).  Every depth
    from n on gives the same list, so ``sweep`` asks for at most that one;
    depth n - 1 still cuts."""
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


class _Plan:
    """How one space is read: its world count ``n``, its ``k`` variable
    slots, its relation ``record`` and its block layout under a budget of
    ``pairs`` (relation, valuation) pairs per block, all fixed at
    construction.  A relation sweep's plan is kept per process, shape and
    budget (``_plan``); a given frame or a labelled space builds its own,
    with its record.  A plan holds no variable name: a space binds its
    names to it (``BulkSpace._bind``), and a program addresses atoms by
    slot, so searches of one shape under any names share it.

    The atoms of the low min(n*k, L) slots, 4^L the largest power of 4
    within the budget, are one table per shape (``_atom_tables``).  A shape
    read in one block keeps that block, and the ``(pos, neg)`` views of
    each slot's atoms in it (``atom_views``); any other is laid out at each
    read (``_split``), and a plan of no relation builds no table."""

    __slots__ = ("n", "k", "full", "record", "_low", "_rel_step", "_kept", "_views")

    def __init__(self, n: int, k: int, record: _RelationList, pairs: int):
        self.n, self.k, self.record = n, k, record
        self.full = _bitset_type(n)((1 << n) - 1)
        slots = n * k
        self._low = min(slots, (pairs.bit_length() - 1) // 2)  # 4^low <= pairs
        self._rel_step = max(1, pairs // 4 ** slots)
        self._kept = self._views = None
        if self._low == slots and 0 < len(record.succ) <= self._rel_step:
            atoms = _atom_tables(n, k, slots)
            self._views = tuple((atoms[j, 0], atoms[j, 1]) for j in range(k))
            self._kept = ((slice(0, self._rel_step), 0, atoms),)

    def blocks(self) -> Iterator[tuple[slice, int, np.ndarray]]:
        """The blocks a space of this plan is read in, in enumeration order,
        each ``(rows, v, atoms)``: the relations ``rows`` of the record with
        the valuations from ``v`` on, of which ``atoms[j]`` holds both
        supports of the j-th name.  A block holds at most the plan's budget
        of (relation, valuation) pairs: whole relations while one relation's
        valuations fit, else aligned blocks of 4^L valuations of one
        relation (a block never spans two relations).  The kept block, if
        any, else those ``_split`` lays out."""
        return self._split() if self._kept is None else iter(self._kept)

    def _split(self) -> Iterator[tuple[slice, int, np.ndarray]]:
        """The blocks of a plan that keeps none (``blocks``).  A block of
        every valuation reads the low slots' table whole, and one that
        fixes the high digits ORs it with the supports those digits set,
        read off a table of the high slots built here (at most 16 entries
        at the default budget).  The low slots' table is fetched for the
        first block, so a plan of no relation builds none."""
        n, k, low = self.n, self.k, self._low
        step, n_val = 4 ** low, 4 ** (n * k)
        high = _build_atoms(n, k, 0, n * k - low) if step < n_val else None
        for r in range(0, len(self.record.succ), self._rel_step):
            atoms = _atom_tables(n, k, low)
            for v in range(0, n_val, step):
                yield (slice(r, r + self._rel_step), v,
                       atoms if high is None else atoms | high[..., v // step, None])

    def atom_views(self, block: tuple[slice, int, np.ndarray]) -> Sequence:
        """Per slot, the ``(pos, neg)`` supports of its atom on ``block``:
        the kept views for the kept block, else views made here."""
        if self._kept is not None and block is self._kept[0]:
            return self._views
        atoms = block[2]
        return [(atoms[j, 0], atoms[j, 1]) for j in range(len(atoms))]


@lru_cache(maxsize=None)
def _plan(n: int, k: int, depth: int | None, pairs: int) -> _Plan:
    """The plan of a sweep of ``n`` worlds, ``k`` variables and a ``depth``
    of at most n (None: every class) under a block budget of ``pairs``,
    with its record ``_relation_list(n, depth)``, admitted by ``_guard``
    and kept per process, so a shape is admitted once and a refusal builds
    nothing.  At most one plan per admissible shape and budget is ever
    kept: n * k <= 12, at most 10^9 labelled cells, and 0 <= depth <= n
    (``sweep`` refuses a negative depth and clamps the rest)."""
    _guard(n, k)
    return _Plan(n, k, _relation_list(n, depth), pairs)


def sweep(worlds: int | Frame, variables: Sequence[str],
          depth: int | None = None) -> BulkSpace:
    """The space of every valuation of ``variables`` on one relation per
    isomorphism class over ``worlds`` worlds (``_relation_list``,
    ascending), or on the one relation of a given ``Frame``; its ``masks``
    name its relations.  With a ``depth``, a sweep over every relation
    keeps only the classes rooted and cut at ``depth`` (``_relation_list``),
    the only ones that can hold the first countermodel of a claim of that
    depth (see the module docstring); a depth below 0 or not an integer
    is refused.

    The size guard runs before anything is allocated: once per shape and
    budget, when its plan is built, or at the call on a given frame.  The
    space binds the names to a plan: the one kept for its shape
    ``(n, k, min(depth, n))`` and the block budget ``_BLOCK_PAIRS`` as read
    at this call (``_plan``), or a given frame's own under that budget,
    with a record built from ``Frame.succ``.  Its blocks read views of the
    record's successor bitsets and clause table, and of the atom tables
    (``_Plan.blocks``).  Every cached array is read-only."""
    names = tuple(sorted(set(variables)))
    if isinstance(worlds, Frame):
        _guard(worlds, len(names))
        n = len(worlds.worlds)
        plan = _Plan(n, len(names), _RelationList(
            None, np.array([worlds.succ], dtype=_bitset_type(n))), _BLOCK_PAIRS)
    else:
        # A depth below 0 or not an integer is refused before a plan or a
        # record is kept for it, and the world count is read before the
        # plans kept by shape, where 2.0 would find the plan of 2.
        if depth is not None and _integer(depth, "a sweep's depth") < 0:
            raise ValueError(f"a sweep's depth is at least 0, not {depth}")
        n = _integer(worlds)
        # Every depth from n on keeps the same classes.
        plan = _plan(n, len(names), None if depth is None else min(depth, n), _BLOCK_PAIRS)
    space = BulkSpace.__new__(BulkSpace)
    space._bind(names, plan)
    return space
