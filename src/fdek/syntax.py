"""Formula and sequent syntax: AST, the shared walk, lexer, parser, renderer.

Formula nodes are immutable.  A node's hash is computed once, when it is
built, from its children's stored hashes, by its class's ``__init__``
alone; ``_fields`` names each class's children.  Equality returns at once
on one object, follows a run of unary nodes without a stack and compares
two atoms by name; only below a binary node does it take an explicit
stack.  ``postorder``, the shared walk
down a formula (each distinct subformula once, children first), serves
``subformulas``, ``variables``, the bulk evaluator (whose compiled
claims carry their modal depth) and the tableau; the scalar ``Evaluator``
walks once with a value stack.

One operator table, ``_PREFIX`` and ``_BINARY``, drives the lexer, the
parser and the renderer (the README lists the surface syntax).  A prefix
lexeme builds a chain of node classes, outermost first, so the sugar ``@``
(``~#``) and ``<>`` (``~[]~``) never appears in ASTs.  A binary lexeme has
a precedence; both binary operators associate to the left.  The lexer
tries the lexemes longest first, so ``|-`` beats ``|``.

The lexer hands the parser bare lexeme strings, from one ``findall`` of
one regex; what is neither a lexeme nor an atom name is a stray character.
Offsets come from a second scan of the same regex that only a
``ParseError`` pays for, so a stray character anywhere is reported before
any syntax error.  A parse builds one ``Atom`` per name, shared by both
sides of a sequent, so the walks and the evaluators' memos find a parse's
atoms by identity.  Compound nodes are not shared: each occurrence is its
own node.

The parser and the renderer are loops over explicit stacks (the renderer
re-sugars ``@`` and ``<>`` in glyph mode only), so formulas of any depth
and width parse, render, hash, compare and evaluate.  Both take a run of
prefix nodes as one unit: the parser builds the run's nodes in one loop,
innermost first, each by ``object.__new__`` and its class's ``__init__``
(binary nodes likewise), without calling the class; the renderer writes
a run in one loop, in ASCII with one table lookup per node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

__all__ = [
    "Formula", "Atom", "Not", "And", "Or", "Tri", "Box",
    "Sequent", "ParseError",
    "parse_formula", "parse_sequent", "render", "render_sequent",
    "postorder", "subformulas", "variables",
    "LANG_TRI", "LANG_BOX",
]

ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")

# Language tags: "tri" = the #-fragment (no []), "box" = the []-fragment (no #).
LANG_TRI = "tri"
LANG_BOX = "box"


class ParseError(ValueError):
    """Raised on malformed input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_new = object.__new__


class Formula:
    """Base class of the immutable formula nodes; ``_fields`` names the
    attributes holding child nodes, in order.  Equality expands each pair
    of nodes once, so it is linear in distinct nodes even where subterms
    are shared."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        # No pair comes twice down a run of unary nodes (formulas are
        # acyclic), so the walk follows one without a stack or a set.
        a, b = self, other
        while isinstance(a, _Unary):
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            a, b = a.child, b.child
            if a is b:
                return True
        if type(a) is Atom:
            return type(b) is Atom and a.name == b.name
        stack, expanded = [(a, b)], set()
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (type(a) is not type(b) or a._hash != b._hash
                    or type(a) is Atom and a.name != b.name):
                return False
            if a._fields:  # only inner pairs are remembered: atoms cost less to compare
                known = len(expanded)
                expanded.add((id(a), id(b)))
                if len(expanded) == known:  # this pair was expanded before
                    continue
            for name in a._fields:
                stack.append((getattr(a, name), getattr(b, name)))
        return True

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # rebuilt by the constructor, so the hash is recomputed
        args = (self.name,) if type(self) is Atom else [getattr(self, n) for n in self._fields]
        return type(self), tuple(args)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {render(self)}>"

    def __str__(self) -> str:
        return render(self)


# Each ``__init__`` writes its node's slots through the slot descriptors
# (``Formula.__setattr__`` refuses every write) and is the one statement
# of its node's hash.  The parser builds nodes by ``_new(cls)`` and these
# same ``__init__`` functions, without the class call.

class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not ATOM_RE.fullmatch(name):
            raise ValueError(f"bad atom name {name!r}")
        _set_name(self, name)
        _set_hash(self, hash(name))


class _Unary(Formula):
    __slots__ = _fields = ("child",)

    def __init__(self, child: Formula):
        _set_child(self, child)
        _set_hash(self, hash((type(self), child._hash)))


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((type(self), left._hash, right._hash)))


_set_hash = Formula._hash.__set__
_set_name = Atom.name.__set__
_set_child = _Unary.child.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Tri(_Unary):
    """The # modality: the argument has the same four-valued value in every
    accessible world (and has one)."""
    __slots__ = ()


class Box(_Unary):
    """The [] modality: the argument is supported-true in every accessible
    world; supported-false iff some accessible world supports its falsity."""
    __slots__ = ()


@dataclass(frozen=True)
class Sequent:
    premise: Formula
    conclusion: Formula

    def __str__(self) -> str:
        return render_sequent(self)


# --- operator table, lexer and parser --------------------------------------

# Prefix lexeme -> (glyph, node classes built, outermost first).
_PREFIX = {
    "~": ("¬", (Not,)),
    "#": ("▲", (Tri,)),
    "[]": ("□", (Box,)),
    "@": ("▽", (Not, Tri)),
    "<>": ("◇", (Not, Box, Not)),
}
# Binary lexeme -> (glyph, node class, precedence); higher binds tighter.
_BINARY = {
    "|": ("∨", Or, 1),
    "&": ("∧", And, 2),
}
_TURNSTILE = ("|-", "⊢")

_LEXEMES = sorted([*_PREFIX, *_BINARY, _TURNSTILE[0], "(", ")"], key=len, reverse=True)
_WORD = rf"{'|'.join(map(re.escape, _LEXEMES))}|{ATOM_RE.pattern}"
# The lexemes and atom names, each non-space character that starts none of
# them as a token of its own, and whitespace skipped: ``findall`` gives
# bare strings.
_LEXEME_RE = re.compile(rf"{_WORD}|\S")


def _offsets(text: str) -> list[int]:
    """The offset of each token, then len(text); raises ParseError at the
    first stray character.  Only errors read offsets, so only they pay for
    this pass."""
    offsets = []
    for m in _LEXEME_RE.finditer(text):
        token = m.group()
        if token not in _LEXEMES and not ATOM_RE.match(token):
            raise ParseError(f"stray character {token!r}", m.start())
        offsets.append(m.start())
    offsets.append(len(text))
    return offsets


class _Parser:
    """A parse over bare lexemes, ended by "".  ``atoms`` holds one ``Atom``
    per name, so every occurrence of a variable in the parse is one object."""

    def __init__(self, text: str):
        tokens = _LEXEME_RE.findall(text)
        # What is neither a lexeme nor an atom name is a stray character.
        if any(not ATOM_RE.match(t) for t in set(tokens).difference(_LEXEMES)):
            _offsets(text)  # raises at the first one
        tokens.append("")
        self.text, self.tokens, self.pos = text, tokens, 0
        self.atoms: dict[str, Atom] = {}

    def fail(self, message: str, at: int) -> NoReturn:
        """Raise ``message`` at the offset of token ``at``."""
        raise ParseError(message, _offsets(self.text)[at])

    def expect(self, want: str) -> None:
        lexeme = self.tokens[self.pos]
        if lexeme != want:
            self.fail(f"expected {want!r}, found {lexeme or 'end of input'!r}", self.pos)
        self.pos += 1

    def formula(self) -> Formula:
        """Binary operators reduce by precedence, to the left; an open
        parenthesis saves the prefix chain before it and the operands and
        operators around it.  Each node is built by ``_new`` and its
        class's ``__init__``: a prefix chain in one loop, innermost first."""
        tokens, atoms, pos = self.tokens, self.atoms, self.pos
        unary, binary = _Unary.__init__, _Binary.__init__
        frames, operands, ops = [], [], []
        while True:
            chain = []
            lexeme = tokens[pos]
            pos += 1
            while lexeme in _PREFIX:
                chain += _PREFIX[lexeme][1]
                lexeme = tokens[pos]
                pos += 1
            if lexeme == "(":
                frames.append((chain, operands, ops))
                operands, ops = [], []
                continue
            node = atoms.get(lexeme)
            if node is None:
                if lexeme[:1].isalpha():  # only atoms start with a letter
                    node = atoms[lexeme] = Atom(lexeme)
                elif not lexeme:
                    self.fail("unexpected end of input", pos - 1)
                else:
                    self.fail(f"unexpected token {lexeme!r}", pos - 1)
            while True:
                for cls in reversed(chain):
                    outer = _new(cls)
                    unary(outer, node)
                    node = outer
                operands.append(node)
                op = _BINARY.get(tokens[pos])
                while ops and (op is None or ops[-1][2] >= op[2]):
                    right = operands.pop()
                    joined = _new(ops.pop()[1])
                    binary(joined, operands[-1], right)
                    operands[-1] = joined
                if op is not None:
                    pos += 1
                    ops.append(op)
                    break
                if not frames:
                    self.pos = pos
                    return operands.pop()
                self.pos = pos
                self.expect(")")
                pos = self.pos
                node = operands.pop()
                chain, operands, ops = frames.pop()

    def finish(self, what: str) -> None:
        lexeme = self.tokens[self.pos]
        if lexeme:
            self.fail(f"unexpected token {lexeme!r} after {what}", self.pos)


def parse_formula(text: str) -> Formula:
    """Parse a single formula.  Raises ParseError with a byte offset."""
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    node = p.formula()
    p.finish("formula")
    return node


def parse_sequent(text: str) -> Sequent:
    """Parse ``premise |- conclusion``.  Exactly one turnstile is allowed;
    both sides share the parse's atoms."""
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    turnstiles = p.tokens.count(_TURNSTILE[0])
    if not turnstiles:
        raise ParseError(f"missing turnstile {_TURNSTILE[0]!r}", len(text))
    if turnstiles > 1:
        first = p.tokens.index(_TURNSTILE[0])
        p.fail(f"duplicate turnstile {_TURNSTILE[0]!r}", p.tokens.index(_TURNSTILE[0], first + 1))
    premise = p.formula()
    p.expect(_TURNSTILE[0])
    conclusion = p.formula()
    p.finish("sequent")
    return Sequent(premise, conclusion)


# --- rendering ---------------------------------------------------------------

# Node class -> (ASCII, glyph) symbol; binary symbols carry their spaces.
_SYMBOL = {chain[0]: (lexeme, glyph)
           for lexeme, (glyph, chain) in _PREFIX.items() if len(chain) == 1}
_ASCII_PREFIX = {cls: lexeme for cls, (lexeme, _) in _SYMBOL.items()}
_SYMBOL.update({cls: (f" {lexeme} ", f" {glyph} ")
                for lexeme, (glyph, cls, _) in _BINARY.items()})
_PREC = {cls: prec for _, cls, prec in _BINARY.values()}
_ATOMIC = max(_PREC.values()) + 1  # atoms and prefix nodes bind tightest
_SUGAR = [(glyph, chain) for glyph, chain in _PREFIX.values() if len(chain) > 1]


def _unchain(f: Formula, chain: tuple[type, ...]) -> Formula | None:
    """The argument of ``f`` if ``f`` is the node chain ``chain``, else None."""
    for cls in chain:
        if type(f) is not cls:
            return None
        f = f.child
    return f


def render(f: Formula, pretty: bool = False) -> str:
    """Render a formula; ``parse_formula(render(f)) == f`` in ASCII mode.
    The stack holds the formulas and the text still to write, in order.
    A prefix chain is written in one loop: in ASCII one table lookup per
    node, in glyph mode with ``@`` and ``<>`` re-sugared."""
    if not isinstance(f, Formula):  # text on the stack is written as it is
        raise TypeError(f"not a formula: {f!r}")
    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        f = stack.pop()
        if type(f) is str:
            out.append(f)
            continue
        wrap = isinstance(f, _Unary)  # a prefix chain over a binary node
        if wrap and pretty:
            while isinstance(f, _Unary):
                for glyph, chain in _SUGAR:
                    arg = _unchain(f, chain)
                    if arg is not None:
                        out.append(glyph)
                        f = arg
                        break
                else:
                    out.append(_SYMBOL[type(f)][1])
                    f = f.child
        elif wrap:
            symbol, prefix = _ASCII_PREFIX[type(f)], _ASCII_PREFIX.get
            while symbol is not None:
                out.append(symbol)
                f = f.child
                symbol = prefix(type(f))
        if type(f) is Atom:
            out.append(f.name)
            continue
        prec = _PREC.get(type(f))
        if prec is None:
            raise TypeError(f"not a formula: {f!r}")
        # Left association: the right operand needs parens at equal precedence.
        lp = _PREC.get(type(f.left), _ATOMIC) < prec
        rp = _PREC.get(type(f.right), _ATOMIC) <= prec
        if wrap or lp:
            out.append("(" * (wrap + lp))
        if wrap or rp:
            stack.append(")" * (wrap + rp))
        stack += (f.right, ")" * lp + _SYMBOL[type(f)][pretty] + "(" * rp, f.left)
    return "".join(out)


def render_sequent(s: Sequent, pretty: bool = False) -> str:
    turnstile = f" {_TURNSTILE[pretty]} "
    return render(s.premise, pretty) + turnstile + render(s.conclusion, pretty)


# --- structural utilities ----------------------------------------------------

def postorder(*fs: Formula) -> list[Formula]:
    """Each distinct subformula of ``fs`` once, every node after its
    children.  An explicit stack, so any depth is walked.  A root that is
    not a formula is refused (a node's children are formulas)."""
    for f in fs:
        if not isinstance(f, Formula):
            raise TypeError(f"not a formula: {f!r}")
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


def subformulas(*fs: Formula) -> frozenset[Formula]:
    """All subtrees of the given formulas, each including itself."""
    return frozenset(postorder(*fs))


def variables(*fs: Formula) -> frozenset[str]:
    """The variables occurring in any of the given formulas."""
    return frozenset(sub.name for sub in postorder(*fs) if isinstance(sub, Atom))
