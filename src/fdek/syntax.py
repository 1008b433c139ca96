"""Formula and sequent syntax: AST, lexer, parser, renderer, and small utilities.

One operator table, ``_PREFIX`` and ``_BINARY``, drives the lexer, the
parser and the renderer (the README lists the surface syntax).  A prefix
lexeme builds a chain of node classes, outermost first, so the sugar ``@``
(``~#``) and ``<>`` (``~[]~``) never appears in ASTs.  A binary lexeme has
a precedence; both binary operators associate to the left.  The token
regex tries the lexemes longest first, so ``|-`` beats ``|``.

Prefix chains are read in a loop: the parser applies them innermost first,
and the renderer re-sugars ``@`` and ``<>`` in glyph mode only.  Only
parentheses and binary nodes recurse, so a chain of any depth parses and
renders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Formula", "Atom", "Not", "And", "Or", "Tri", "Box",
    "Sequent", "ParseError",
    "parse_formula", "parse_sequent", "render", "render_sequent",
    "subformulas", "variables", "contains_box", "contains_tri",
    "LANG_TRI", "LANG_BOX", "in_language",
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


@dataclass(frozen=True)
class Formula:
    """Base class for formula AST nodes.  Nodes are immutable and hashable."""

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not ATOM_RE.fullmatch(self.name):
            raise ValueError(f"bad atom name {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Tri(Formula):
    """The # modality: the argument has the same four-valued value in every
    accessible world (and has one)."""
    child: Formula


@dataclass(frozen=True)
class Box(Formula):
    """The [] modality: the argument is supported-true in every accessible
    world; supported-false iff some accessible world supports its falsity."""
    child: Formula


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

    def formula(self, min_prec: int = 1) -> Formula:
        """Precedence climbing over ``_BINARY``, left-associative."""
        node = self.unary()
        while (op := _BINARY.get(self.tokens[self.pos][0])) and op[2] >= min_prec:
            self.pos += 1
            node = op[1](node, self.formula(op[2] + 1))
        return node

    def unary(self) -> Formula:
        chain: list[type] = []
        lexeme, offset = self.advance()
        while lexeme in _PREFIX:
            chain += _PREFIX[lexeme][1]
            lexeme, offset = self.advance()
        if lexeme == "(":
            node = self.formula()
            self.expect(")")
        elif lexeme[:1].isalpha():  # only atoms start with a letter
            node = Atom(lexeme)
        elif not lexeme:
            raise ParseError("unexpected end of input", offset)
        else:
            raise ParseError(f"unexpected token {lexeme!r}", offset)
        for cls in reversed(chain):
            node = cls(node)
        return node

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
    """Render a formula; ``parse_formula(render(f)) == f`` in ASCII mode."""
    head = []
    while isinstance(f, (Not, Tri, Box)):
        for glyph, chain in _SUGAR if pretty else ():
            arg = _unchain(f, chain)
            if arg is not None:
                head.append(glyph)
                f = arg
                break
        else:
            head.append(_SYMBOL[type(f)][pretty])
            f = f.child
    if isinstance(f, Atom):
        return "".join(head) + f.name
    prec = _PREC.get(type(f))
    if prec is None:
        raise TypeError(f"not a formula: {f!r}")
    left, right = render(f.left, pretty), render(f.right, pretty)
    # Left association: the right operand needs parens at equal precedence.
    if _PREC.get(type(f.left), _ATOMIC) < prec:
        left = f"({left})"
    if _PREC.get(type(f.right), _ATOMIC) <= prec:
        right = f"({right})"
    body = left + _SYMBOL[type(f)][pretty] + right
    return "".join(head) + f"({body})" if head else body


def render_sequent(s: Sequent, pretty: bool = False) -> str:
    turnstile = f" {_TURNSTILE[pretty]} "
    return render(s.premise, pretty) + turnstile + render(s.conclusion, pretty)


# --- structural utilities ----------------------------------------------------

def subformulas(*fs: Formula) -> frozenset[Formula]:
    """All subtrees of the given formulas, each including itself; one walk
    with one visited set, so a subtree they share is visited once."""
    acc: set[Formula] = set()
    stack = list(fs)
    while stack:
        node = stack.pop()
        if node in acc:
            continue
        acc.add(node)
        if isinstance(node, (Not, Tri, Box)):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(acc)


def variables(*fs: Formula) -> frozenset[str]:
    """The variables occurring in any of the given formulas."""
    return frozenset(sub.name for sub in subformulas(*fs) if isinstance(sub, Atom))


def size(f: Formula) -> int:
    """Number of AST nodes, by an explicit-stack walk."""
    count, stack = 0, [f]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, (Not, Tri, Box)):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack += (node.left, node.right)
    return count


def contains_box(f: Formula) -> bool:
    return any(isinstance(sub, Box) for sub in subformulas(f))


def contains_tri(f: Formula) -> bool:
    return any(isinstance(sub, Tri) for sub in subformulas(f))


def in_language(f: Formula, language: str) -> bool:
    """True iff ``f`` avoids the modality foreign to ``language``."""
    if language == LANG_TRI:
        return not contains_box(f)
    if language == LANG_BOX:
        return not contains_tri(f)
    raise ValueError(f"unknown language tag {language!r}")
