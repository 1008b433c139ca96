"""Formula and sequent syntax: AST, the one walk, lexer, parser, renderer.

Formula nodes are immutable.  A node's hash is computed once, when it is
built, from its children's stored hashes; equality uses an explicit stack;
``_fields`` names each class's children.  ``postorder``, the one walk down
a formula (each distinct subformula once, children first), serves
``subformulas``, ``variables``, ``size`` and both evaluators;
``modal_depth`` walks by node identity, which hashes nothing.

One operator table, ``_PREFIX`` and ``_BINARY``, drives the lexer, the
parser and the renderer (the README lists the surface syntax).  A prefix
lexeme builds a chain of node classes, outermost first, so the sugar ``@``
(``~#``) and ``<>`` (``~[]~``) never appears in ASTs.  A binary lexeme has
a precedence; both binary operators associate to the left.  The token
regex tries the lexemes longest first, so ``|-`` beats ``|``.

The parser and the renderer are loops over explicit stacks (the renderer
re-sugars ``@`` and ``<>`` in glyph mode only), so formulas of any depth
and width parse, render, hash, compare and evaluate.
"""

from __future__ import annotations

import re
from collections.abc import Container
from dataclasses import dataclass

__all__ = [
    "Formula", "Atom", "Not", "And", "Or", "Tri", "Box",
    "Sequent", "ParseError",
    "parse_formula", "parse_sequent", "render", "render_sequent",
    "postorder", "subformulas", "variables", "modal_depth",
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


_init = object.__setattr__


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
        if not isinstance(other, Formula):
            return NotImplemented
        stack, expanded = [(self, other)], set()
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


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not ATOM_RE.fullmatch(name):
            raise ValueError(f"bad atom name {name!r}")
        _init(self, "name", name)
        _init(self, "_hash", hash(name))


class _Unary(Formula):
    __slots__ = _fields = ("child",)

    def __init__(self, child: Formula):
        _init(self, "child", child)
        _init(self, "_hash", hash((type(self), child._hash)))


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _init(self, "left", left)
        _init(self, "right", right)
        _init(self, "_hash", hash((type(self), left._hash, right._hash)))


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
_TOKEN_RE = re.compile(
    rf"\s+|({'|'.join(map(re.escape, _LEXEMES))}|{ATOM_RE.pattern})|(.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(lexeme, offset) pairs by maximal munch, then ("", len(text)) for the end."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        lexeme, stray = m.groups()
        if stray:
            raise ParseError(f"stray character {stray!r}", m.start())
        if lexeme:
            tokens.append((lexeme, m.start()))
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def advance(self) -> tuple[str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        lexeme, offset = self.advance()
        if lexeme != want:
            raise ParseError(f"expected {want!r}, found {lexeme or 'end of input'!r}", offset)

    def formula(self) -> Formula:
        """Binary operators reduce by precedence, to the left; an open
        parenthesis saves the prefix chain before it and the operands and
        operators around it."""
        frames, operands, ops = [], [], []
        while True:
            chain = []
            lexeme, offset = self.advance()
            while lexeme in _PREFIX:
                chain += _PREFIX[lexeme][1]
                lexeme, offset = self.advance()
            if lexeme == "(":
                frames.append((chain, operands, ops))
                operands, ops = [], []
                continue
            if lexeme[:1].isalpha():  # only atoms start with a letter
                node = Atom(lexeme)
            elif not lexeme:
                raise ParseError("unexpected end of input", offset)
            else:
                raise ParseError(f"unexpected token {lexeme!r}", offset)
            while True:
                for cls in reversed(chain):
                    node = cls(node)
                operands.append(node)
                op = _BINARY.get(self.tokens[self.pos][0])
                while ops and (op is None or ops[-1][2] >= op[2]):
                    right = operands.pop()
                    operands[-1] = ops.pop()[1](operands[-1], right)
                if op is not None:
                    self.pos += 1
                    ops.append(op)
                    break
                if not frames:
                    return operands.pop()
                self.expect(")")
                node = operands.pop()
                chain, operands, ops = frames.pop()

    def finish(self, what: str) -> None:
        lexeme, offset = self.tokens[self.pos]
        if lexeme:
            raise ParseError(f"unexpected token {lexeme!r} after {what}", offset)


def parse_formula(text: str) -> Formula:
    """Parse a single formula.  Raises ParseError with a byte offset."""
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    node = p.formula()
    p.finish("formula")
    return node


def parse_sequent(text: str) -> Sequent:
    """Parse ``premise |- conclusion``.  Exactly one turnstile is allowed."""
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    turnstiles = [offset for lexeme, offset in p.tokens if lexeme == _TURNSTILE[0]]
    if not turnstiles:
        raise ParseError(f"missing turnstile {_TURNSTILE[0]!r}", len(text))
    if len(turnstiles) > 1:
        raise ParseError(f"duplicate turnstile {_TURNSTILE[0]!r}", turnstiles[1])
    premise = p.formula()
    p.expect(_TURNSTILE[0])
    conclusion = p.formula()
    p.finish("sequent")
    return Sequent(premise, conclusion)


# --- rendering ---------------------------------------------------------------

# Node class -> (ASCII, glyph) symbol; binary symbols carry their spaces.
_SYMBOL = {chain[0]: (lexeme, glyph)
           for lexeme, (glyph, chain) in _PREFIX.items() if len(chain) == 1}
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
    The stack holds the formulas and the text still to write, in order."""
    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        f = stack.pop()
        if type(f) is str:
            out.append(f)
            continue
        wrap = isinstance(f, _Unary)  # a prefix chain over a binary node
        while isinstance(f, _Unary):
            for glyph, chain in _SUGAR if pretty else ():
                arg = _unchain(f, chain)
                if arg is not None:
                    out.append(glyph)
                    f = arg
                    break
            else:
                out.append(_SYMBOL[type(f)][pretty])
                f = f.child
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

def postorder(*fs: Formula, skip: Container[Formula] = ()) -> list[Formula]:
    """Each distinct subformula of ``fs`` once, every node after its
    children, leaving out the nodes in ``skip`` (say, a memo) and what lies
    only below them.  An explicit stack, so any depth is walked."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(f, False) for f in reversed(fs)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen and node not in skip:
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


def size(f: Formula) -> int:
    """Number of AST nodes, a shared subtree counted at each occurrence."""
    sizes: dict[Formula, int] = {}
    for node in postorder(f):
        sizes[node] = 1 + sum(sizes[getattr(node, name)] for name in node._fields)
    return sizes[f]


def modal_depth(*fs: Formula) -> int:
    """The deepest nesting of ``#`` and ``[]`` in any of the formulas: a
    formula of depth d at a world reads only the worlds within d steps.

    Not on ``postorder``: every countermodel search reads this, and
    hashing the nodes cost it four times the time.  The walk goes down
    from the roots with the depth above each node, and visits a node
    object once per such depth, so a shared subterm is not walked once
    per path to it."""
    deepest, seen = 0, set()
    stack = [(f, 0) for f in fs]
    while stack:
        node, depth = stack.pop()
        if type(node) is Tri or type(node) is Box:
            depth += 1
        key = (id(node), depth)
        if key in seen:
            continue
        seen.add(key)
        if depth > deepest:
            deepest = depth
        for name in node._fields:
            stack.append((getattr(node, name), depth))
    return deepest
