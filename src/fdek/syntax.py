"""Formula and sequent syntax: AST, lexer, parser, renderer, and small utilities.

Surface syntax (ASCII):

    ~  negation        &  conjunction      |  disjunction
    #  same-value-everywhere modality (unary)
    [] necessity modality (unary)
    <> possibility, sugar for ~[]~        @  sugar for ~#
    |- sequent turnstile

Precedence: unary operators bind tightest, then ``&``, then ``|``; both
binary operators associate to the left.  ``<>`` and ``@`` are expanded at
parse time and never appear in ASTs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

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


# --- lexer -----------------------------------------------------------------

_TOKEN_SPEC = (
    ("IDENT", ATOM_RE),
    ("TURNSTILE", re.compile(r"\|-")),  # must be tried before "|"
    ("OR", re.compile(r"\|")),
    ("AND", re.compile(r"&")),
    ("NOT", re.compile(r"~")),
    ("TRI", re.compile(r"#")),
    ("BOX", re.compile(r"\[\]")),
    ("DIAMOND", re.compile(r"<>")),
    ("NABLA", re.compile(r"@")),
    ("LPAREN", re.compile(r"\(")),
    ("RPAREN", re.compile(r"\)")),
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    """Yield (kind, lexeme, offset) triples; maximal munch, '|-' beats '|'."""
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        for kind, rx in _TOKEN_SPEC:
            m = rx.match(text, pos)
            if m:
                yield kind, m.group(), pos
                pos = m.end()
                break
        else:
            raise ParseError(f"stray character {text[pos]!r}", pos)
    yield "EOF", "", n


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    # formula := disj ; disj := conj ('|' conj)* ; conj := unary ('&' unary)*
    def formula(self) -> Formula:
        node = self.conj()
        while self.peek()[0] == "OR":
            self.advance()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "AND":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        kind, lexeme, offset = self.peek()
        if kind == "NOT":
            self.advance()
            return Not(self.unary())
        if kind == "TRI":
            self.advance()
            return Tri(self.unary())
        if kind == "BOX":
            self.advance()
            return Box(self.unary())
        if kind == "DIAMOND":
            self.advance()
            return Not(Box(Not(self.unary())))
        if kind == "NABLA":
            self.advance()
            return Not(Tri(self.unary()))
        if kind == "IDENT":
            self.advance()
            return Atom(lexeme)
        if kind == "LPAREN":
            self.advance()
            node = self.formula()
            self.expect("RPAREN", "')'")
            return node
        if kind == "EOF":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {lexeme!r}", offset)


def parse_formula(text: str) -> Formula:
    """Parse a single formula.  Raises ParseError with a byte offset."""
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    node = p.formula()
    kind, lexeme, offset = p.peek()
    if kind != "EOF":
        raise ParseError(f"unexpected token {lexeme!r} after formula", offset)
    return node


def parse_sequent(text: str) -> Sequent:
    """Parse ``premise |- conclusion``.  Exactly one turnstile is allowed."""
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    turnstiles = [t for t in p.tokens if t[0] == "TURNSTILE"]
    if not turnstiles:
        raise ParseError("missing turnstile '|-'", len(text))
    if len(turnstiles) > 1:
        raise ParseError("duplicate turnstile '|-'", turnstiles[1][2])
    premise = p.formula()
    p.expect("TURNSTILE", "'|-'")
    conclusion = p.formula()
    kind, lexeme, offset = p.peek()
    if kind != "EOF":
        raise ParseError(f"unexpected token {lexeme!r} after sequent", offset)
    return Sequent(premise, conclusion)


# --- rendering ---------------------------------------------------------------

_GLYPHS = {"~": "¬", "&": " ∧ ", "|": " ∨ ", "#": "▲",
           "[]": "□", "@": "▽", "<>": "◇", "|-": " ⊢ "}
_ASCII = {"~": "~", "&": " & ", "|": " | ", "#": "#",
          "[]": "[]", "@": "@", "<>": "<>", "|-": " |- "}


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    return 3


def _render(f: Formula, sym) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        # Re-sugar derived operators in glyph mode only.
        if sym is _GLYPHS and isinstance(f.child, Tri):
            return sym["@"] + _render_arg(f.child.child, sym)
        if sym is _GLYPHS and isinstance(f.child, Box) and isinstance(f.child.child, Not):
            return sym["<>"] + _render_arg(f.child.child.child, sym)
        return sym["~"] + _render_arg(f.child, sym)
    if isinstance(f, Tri):
        return sym["#"] + _render_arg(f.child, sym)
    if isinstance(f, Box):
        return sym["[]"] + _render_arg(f.child, sym)
    if isinstance(f, And):
        left = _render_binop(f.left, 2, False, sym)
        right = _render_binop(f.right, 2, True, sym)
        return left + sym["&"] + right
    if isinstance(f, Or):
        left = _render_binop(f.left, 1, False, sym)
        right = _render_binop(f.right, 1, True, sym)
        return left + sym["|"] + right
    raise TypeError(f"not a formula: {f!r}")


def _render_arg(f: Formula, sym) -> str:
    # Argument of a unary operator: parenthesize binary children.
    text = _render(f, sym)
    return f"({text})" if _prec(f) < 3 else text


def _render_binop(f: Formula, parent_prec: int, is_right: bool, sym) -> str:
    text = _render(f, sym)
    prec = _prec(f)
    # Left association: the right operand needs parens at equal precedence.
    if prec < parent_prec or (is_right and prec == parent_prec):
        return f"({text})"
    return text


def render(f: Formula, pretty: bool = False) -> str:
    """Render a formula; ``parse_formula(render(f)) == f`` in ASCII mode."""
    return _render(f, _GLYPHS if pretty else _ASCII)


def render_sequent(s: Sequent, pretty: bool = False) -> str:
    sym = _GLYPHS if pretty else _ASCII
    return render(s.premise, pretty) + sym["|-"] + render(s.conclusion, pretty)


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
    """Number of AST nodes."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, (Not, Tri, Box)):
        return 1 + size(f.child)
    return 1 + size(f.left) + size(f.right)


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
