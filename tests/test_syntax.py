import copy
import hashlib
import json
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from fdek.syntax import (
    LANG_BOX, LANG_TRI, And, Atom, Box, Not, Or, ParseError, Sequent,
    Tri, _number, parse_formula, parse_sequent, render, render_sequent, subformulas, variables,
)

from fdek.bulkeval import _compile

from reference_impl import modal_depth_by_postorder, size

p, q, r = Atom("p"), Atom("q"), Atom("r")


def formulas(language=LANG_TRI, names=("p", "q")):
    atoms = st.sampled_from([Atom(n) for n in names])
    modal = Tri if language == LANG_TRI else Box

    def extend(children):
        return st.one_of(
            children.map(Not),
            children.map(modal),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=12)


class TestParse:
    def test_negated_conjunction(self):
        assert parse_formula("~(p & q)") == Not(And(p, q))

    def test_modal_atom(self):
        assert parse_formula("#p") == Tri(p)

    def test_excluded_middle_under_modality(self):
        assert parse_formula("#(q | ~q)") == Tri(Or(q, Not(q)))

    def test_box_and_sugar(self):
        assert parse_formula("[]p") == Box(p)
        assert parse_formula("<>p") == Not(Box(Not(p)))
        assert parse_formula("@p") == Not(Tri(p))

    def test_precedence(self):
        assert parse_formula("p & q | r") == Or(And(p, q), r)
        assert parse_formula("p | q & r") == Or(p, And(q, r))
        assert parse_formula("~p & q") == And(Not(p), q)
        assert parse_formula("#p & q") == And(Tri(p), q)

    def test_left_associativity(self):
        assert parse_formula("p | q | r") == Or(Or(p, q), r)
        assert parse_formula("p & q & r") == And(And(p, q), r)

    def test_nested_unary(self):
        assert parse_formula("~#~p") == Not(Tri(Not(p)))

    @pytest.mark.parametrize("text", ["", "   ", "p &", "(p", "p)", "& p",
                                      "p $ q", "[p", "# "])
    def test_bad_formula(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p & $q")
        assert err.value.offset == 4


class TestParseSequent:
    def test_modal_sequent(self):
        assert parse_sequent("#p |- #~p") == Sequent(Tri(p), Tri(Not(p)))

    def test_plain_sequent(self):
        assert parse_sequent("p & q |- p") == Sequent(And(p, q), p)

    def test_maximal_munch(self):
        # 'p|q|-r' splits as p, |, q, |-, r
        assert parse_sequent("p|q|-r") == Sequent(Or(p, q), r)

    def test_duplicate_turnstile(self):
        with pytest.raises(ParseError, match="duplicate") as err:
            parse_sequent("p |- q |- r")
        assert err.value.offset == 7  # the second one

    def test_missing_turnstile(self):
        text = "p & q  "
        with pytest.raises(ParseError, match="missing") as err:
            parse_sequent(text)
        assert err.value.offset == len(text)


class TestParseSharing:
    # One parse holds one Atom per name; nodes are never shared between parses.
    def test_repeated_atom_is_one_object(self):
        f = parse_formula("p & p")
        assert f.left is f.right

    def test_both_sides_of_a_sequent_share_atoms(self):
        s = parse_sequent("#p |- p")
        assert s.premise.child is s.conclusion

    def test_separate_parses_share_no_node(self):
        text = "#(p & ~q) | p"
        f, g = parse_formula(text), parse_formula(text)
        assert f == g
        assert not {id(n) for n in _number(f)[0]} & {id(n) for n in _number(g)[0]}

    def test_pickle_round_trip_keeps_equality_and_sharing(self):
        f = parse_formula("#(p & ~q) | p")
        g = pickle.loads(pickle.dumps(f))
        assert g is not f and g == f and hash(g) == hash(f)
        assert g.right is g.left.child.left


class TestParseErrors:
    # Offsets are found only when an error is raised; they must be those of
    # a left-to-right scan of the whole text.
    def test_stray_character_wins_over_an_earlier_syntax_error(self):
        for parse in (parse_formula, parse_sequent):
            with pytest.raises(ParseError, match="stray character 'é'") as err:
                parse("p & ) é |- p")
            assert err.value.offset == 6

    @pytest.mark.parametrize("text", ["é", "pé", "p & é", "# é |- p"])
    def test_non_ascii_letter_is_a_stray_character(self, text):
        for parse in (parse_formula, parse_sequent):
            with pytest.raises(ParseError, match="stray character") as err:
                parse(text)
            assert err.value.offset == text.index("é")

    def test_offsets_past_ten_thousand(self):
        text = "p & " * 3000 + "& q"
        with pytest.raises(ParseError, match="unexpected token '&'") as err:
            parse_formula(text)
        assert err.value.offset == 12_000
        text = "(" * 6000 + "p" + ")" * 5999 + " |- q"
        with pytest.raises(ParseError, match=re.escape("expected ')', found '|-'")) as err:
            parse_sequent(text)
        assert err.value.offset == 12_001
        with pytest.raises(ParseError, match=re.escape("stray character '$'")) as err:
            parse_formula("~" * 11_000 + "p $")
        assert err.value.offset == 11_002


class TestRender:
    def test_modal_atom(self):
        assert render(Tri(p)) == "#p"

    def test_negated_modal(self):
        assert render(Not(Tri(p))) == "~#p"

    def test_parens_forced_by_precedence(self):
        assert render(And(p, Or(q, r))) == "p & (q | r)"
        assert render(Or(And(p, q), r)) == "p & q | r"

    def test_right_nesting_kept(self):
        assert render(Or(p, Or(q, r))) == "p | (q | r)"
        assert render(Or(Or(p, q), r)) == "p | q | r"

    def test_unary_argument_parens(self):
        assert render(Tri(Or(q, Not(q)))) == "#(q | ~q)"

    def test_pretty_glyphs(self):
        assert render(Tri(Or(q, Not(q))), pretty=True) == "▲(q ∨ ¬q)"
        assert render(Not(Tri(p)), pretty=True) == "▽p"
        assert render(Not(Box(Not(p))), pretty=True) == "◇p"

    def test_sequent_render(self):
        s = parse_sequent("#p |- #~p")
        assert render_sequent(s) == "#p |- #~p"

    @pytest.mark.parametrize("f", ["p & q", 3, None, [p]])
    def test_non_formula_raises_type_error(self, f):
        # Text is what the renderer's stack writes out as it is; a root
        # argument that is text must not be taken for it.
        with pytest.raises(TypeError, match="not a formula"):
            render(f)

    @given(formulas())
    def test_round_trip_tri(self, f):
        assert parse_formula(render(f)) == f

    @given(formulas(language=LANG_BOX))
    def test_round_trip_box(self, f):
        assert parse_formula(render(f)) == f


class TestStructure:
    def test_subformulas_modal(self):
        assert subformulas(Tri(p)) == {Tri(p), p}

    def test_subformulas_excluded_middle(self):
        f = Tri(Or(q, Not(q)))
        assert subformulas(f) == {f, Or(q, Not(q)), q, Not(q)}

    def test_formula_is_its_own_subformula(self):
        assert subformulas(p) == {p}

    def test_variables(self):
        assert variables(Tri(Or(q, Not(q)))) == {"q"}
        assert variables(And(p, Not(p))) == {"p"}
        assert variables(Tri(Tri(p))) == {"p"}

    @given(formulas(names=("p", "q", "r")))
    def test_subformula_count_bounded_by_size(self, f):
        assert len(subformulas(f)) <= size(f)

    @given(formulas(names=("p", "q", "r")))
    def test_variables_stable_under_round_trip(self, f):
        assert variables(parse_formula(render(f))) == variables(f)

    @given(formulas())
    def test_language_closed_under_subformulas(self, f):
        # A #-fragment formula has no [] anywhere, so neither has any of
        # its subformulas.
        assert not any(isinstance(sub, Box) for sub in _number(f)[0])
        assert all(not any(isinstance(g, Box) for g in _number(sub)[0])
                   for sub in subformulas(f))

    @pytest.mark.parametrize("text,depth", [
        ("p", 0), ("~(p & q) | p", 0), ("#p", 1), ("[]p", 1), ("@p", 1), ("<>p", 1),
        ("p & ##q", 2), ("[]#p", 2), ("#p | ~[](q & #[]r)", 3)])
    def test_modal_depth(self, text, depth):
        # A compiled claim carries its modal depth.  Both modalities count;
        # the sugar @ and <> is one modality each.
        assert _compile(parse_formula(text)).depth == depth

    def test_modal_depth_of_several_formulas_is_the_deepest(self):
        s = parse_sequent("##p |- #p | []q")
        assert _compile(s).depth == 2
        assert _compile(s.conclusion).depth == 1

    @given(formulas(names=("p", "q", "r")), formulas(LANG_BOX, names=("p", "q")))
    def test_modal_depth_matches_the_children_first_fold(self, f, g):
        assert _compile(Sequent(f, g)).depth == modal_depth_by_postorder(f, g)
        assert _compile(And(f, g)).depth == modal_depth_by_postorder(And(f, g))

    def test_modal_depth_of_shared_subterms(self):
        # 2^60 paths lead down this formula; the compiler numbers each
        # distinct subformula once.
        f = p
        for _ in range(60):
            f = And(Tri(f), f)
        assert _compile(f).depth == 60

    def test_atom_name_validation(self):
        with pytest.raises(ValueError):
            Atom("P")
        with pytest.raises(ValueError):
            Atom("")
        with pytest.raises(ValueError):
            Atom("1p")


def _children(f):
    if isinstance(f, (Not, Tri, Box)):
        return [f.child]
    if isinstance(f, (And, Or)):
        return [f.left, f.right]
    return []


def _subtrees(f):
    """Every subtree of ``f``, by plain recursion (hypothesis formulas are small)."""
    return {f}.union(*map(_subtrees, _children(f)))


class TestNodes:
    @given(formulas(names=("p", "q", "r")))
    def test_reparsed_copy_is_equal_and_hashes_alike(self, f):
        g = parse_formula(render(f))
        assert g is not f and g == f and hash(g) == hash(f)

    @given(formulas(names=("p", "q", "r")))
    def test_postorder_lists_each_subformula_once_children_first(self, f):
        order = _number(f)[0]
        assert len(order) == len(set(order))
        assert set(order) == subformulas(f) == _subtrees(f)
        place = {g: i for i, g in enumerate(order)}
        assert all(place[c] < place[g] for g in order for c in _children(g))

    def test_class_and_child_order_matter(self):
        # Distinct nodes hash apart but for a collision of 64-bit hashes.
        for a, b in [(Not(p), Tri(p)), (Tri(p), Box(p)), (And(p, q), Or(p, q)),
                     (And(p, q), And(q, p)), (Not(p), Not(q))]:
            assert a != b and not a == b
            assert hash(a) != hash(b)

    def test_equality_down_unary_runs(self):
        # The run of unary nodes above the first binary node or atom is
        # followed without a stack; what lies below it is compared as ever.
        chain = "#~[]" * 300
        assert parse_formula(chain + "p") == parse_formula(chain + "p")
        assert parse_formula(chain + "p") != parse_formula(chain + "q")
        assert parse_formula(chain + "(p & q)") == parse_formula(chain + "(p & q)")
        assert parse_formula(chain + "(p & q)") != parse_formula(chain + "(p | q)")
        assert parse_formula(chain + "(p & ~q)") != parse_formula(chain + "(p & ~r)")
        assert parse_formula(chain + "p") != parse_formula(chain[1:] + "p")
        assert Tri(p) != p and p != Tri(p) and Not(p) != And(p, p)
        assert p == Atom("p") and p != q
        assert p != "p" and Tri(p) != "#p"

    def test_equality_on_shared_subterms_is_linear(self):
        # 65 distinct nodes, but 2^64 paths from the top of each tower.
        def tower(bottom):
            x = Atom(bottom)
            for _ in range(64):
                x = And(x, x)
            return x

        a, b = tower("p"), tower("p")
        assert a is not b and a == b
        assert a != tower("q")

    def test_nodes_are_immutable(self):
        f = Not(p)
        with pytest.raises(AttributeError):
            f.child = q
        with pytest.raises(AttributeError):
            del p.name
        assert f == Not(p)

    def test_pickle_and_copy_rebuild_through_the_constructor(self):
        f = parse_formula("#~(p & q) | []r")
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert g is not f and g == f and hash(g) == hash(f)

    def test_parsed_nodes_match_constructed_ones(self):
        # The parser builds nodes without calling their classes; each of its
        # nodes must be the node the constructors build, and the one that
        # ``__reduce__`` and ``copy.deepcopy`` rebuild through them.
        rng = random.Random(31)
        seeded = [_sugared(rng, 4) for _ in range(150)]
        for text, built in seeded + [_CI_CHAIN, _CI_SPINE]:
            parsed = parse_formula(text)
            _assert_same_nodes(parsed, built)
            if (text, built) in seeded:  # deepcopy recurses on the depth
                cls, args = parsed.__reduce__()
                _assert_same_nodes(parsed, cls(*args))
                _assert_same_nodes(parsed, copy.deepcopy(parsed))
            for node, _ in _node_pairs(parsed, built):
                for name in ("_hash", "name", "child", "left", "right"):
                    with pytest.raises(AttributeError):
                        setattr(node, name, p)
                    with pytest.raises(AttributeError):
                        delattr(node, name)


# Each prefix lexeme and the constructors it stands for, outermost first.
_PREFIXES = {"~": (Not,), "#": (Tri,), "[]": (Box,), "@": (Not, Tri), "<>": (Not, Box, Not)}


def _sugared(rng, depth):
    """A seeded formula over all five connectives and the ``@``/``<>``
    sugar: its text, with runs of up to five prefix lexemes and operands
    parenthesised at random, and the formula the constructors build."""
    lexemes = [rng.choice(list(_PREFIXES)) for _ in range(rng.randint(0, 5))]
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(("p", "q", "r"))
        text, node = name, Atom(name)
    else:
        (lt, left), (rt, right) = _sugared(rng, depth - 1), _sugared(rng, depth - 1)
        op, cls = rng.choice((("&", And), ("|", Or)))
        text, node = f"({lt} {op} {rt})", cls(left, right)
    for lexeme in reversed(lexemes):
        for cls in reversed(_PREFIXES[lexeme]):
            node = cls(node)
    return "".join(lexemes) + text, node


def _ci_chain():
    node = Or(And(p, Not(r)), Tri(r))
    for _ in range(1000):
        node = Tri(Not(node))
    return "#~" * 1000 + "(p & ~r | #r)", node


def _ci_spine():
    node = p
    for i in range(400):
        node = Or(node, Tri(Not(r))) if i % 3 else And(node, Not(Tri(Or(p, r))))
    return "(" * 400 + "p" + "".join(" | #~r)" if i % 3 else " & ~#(p | r))"
                                     for i in range(400)), node


# The deep texts of the CI smoke run and their formulas.
_CI_CHAIN, _CI_SPINE = _ci_chain(), _ci_spine()


def _node_pairs(a, b):
    """The pairs of nodes at the same place of two trees of one shape, by
    an explicit stack; raises AssertionError where the shapes part."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        assert type(a) is type(b) and a._fields == b._fields
        yield a, b
        stack += [(getattr(a, n), getattr(b, n)) for n in a._fields]


def _assert_same_nodes(a, b):
    for x, y in _node_pairs(a, b):
        assert x._hash == y._hash and hash(x) == hash(y) and x == y and y == x
        if type(x) is Atom:
            assert x.name == y.name


# Lexemes of the surface syntax, characters no token starts with, and
# whitespace beyond the ASCII space (all accepted by ``str.isspace``).
_LEXEMES = ("p", "q", "r", "x1", "p_q", "~", "&", "|", "#", "[]", "<>", "@",
            "|-", "(", ")")
_STRAY = ("!", "[", "]", "<", ">", "-", "¬", "$", "P", "1")
_SPACES = (" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c")


def _grammar_tokens(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return [rng.choice(("p", "q", "r", "x1"))]
    if roll < 0.6:
        prefix = [rng.choice(("~", "#", "[]", "<>", "@")) for _ in range(rng.randint(1, 3))]
        return prefix + _grammar_tokens(rng, depth - 1)
    body = (_grammar_tokens(rng, depth - 1) + [rng.choice("&|")]
            + _grammar_tokens(rng, depth - 1))
    return ["("] + body + [")"] if rng.random() < 0.5 else body


def _token_string(rng):
    """Either random tokens, or a well-formed formula or sequent with at
    most one token replaced, inserted or dropped; joined with no space, a
    space, or other whitespace."""
    if rng.random() < 0.4:
        tokens = [rng.choice(_LEXEMES + _STRAY) for _ in range(rng.randint(0, 10))]
    else:
        tokens = _grammar_tokens(rng, 3)
        if rng.random() < 0.5:
            tokens += ["|-"] + _grammar_tokens(rng, 3)
        edit = rng.random()
        at = rng.randrange(len(tokens) + 1)
        if edit < 0.2:
            tokens.insert(at, rng.choice(_LEXEMES + _STRAY))
        elif edit < 0.4 and at < len(tokens):
            del tokens[at]
        elif edit < 0.5 and at < len(tokens):
            tokens[at] = rng.choice(_LEXEMES + _STRAY)
    text = ""
    for tok in tokens:
        gap = rng.random()
        text += tok + ("" if gap < 0.5 else " " if gap < 0.8 else rng.choice(_SPACES))
    return text


def _outcome(parse, text):
    try:
        parsed = parse(text)
    except Exception as err:
        return ["error", type(err).__name__, str(err), getattr(err, "offset", None)]
    show = render_sequent if isinstance(parsed, Sequent) else render
    return ["ok", show(parsed), show(parsed, pretty=True)]


class TestGolden:
    def test_golden_syntax_corpus(self):
        # What each parser makes of a seeded token-string corpus: both
        # renderings, or the exception with its message and offset.
        rng = random.Random(9)
        digest = hashlib.sha256()
        for _ in range(10_000):
            text = _token_string(rng)
            record = [text, _outcome(parse_formula, text), _outcome(parse_sequent, text)]
            digest.update(json.dumps(record).encode() + b"\n")
        assert digest.hexdigest() == \
            "d29680e75b5340598da1b5ed4b785d36ce542114096c7aa9450c36fc60b19a62"


class TestDeepPrefixChains:
    def test_ten_thousand_deep_chain(self):
        text = "#~" * 5000 + "p"
        f = parse_formula(text)
        assert render(f) == text
        # Glyphs re-sugar each ~# into one ▽: ▲, 4999 × ▽, ¬, p.
        assert len(render(f, pretty=True)) == 5002
        assert size(f) == 10_001
        assert text in repr(f)
        twin = parse_formula(text)
        assert twin is not f and twin == f and hash(twin) == hash(f)
        assert f != parse_formula("#~" * 5000 + "q")
        assert len(subformulas(f)) == 10_001
        assert variables(f) == {"p"}

    def test_modal_depth_of_a_two_thousand_deep_chain(self):
        assert _compile(parse_formula("#" * 2000 + "p")).depth == 2000
        assert _compile(parse_formula("#~" * 2000 + "p & []p")).depth == 2000

    def test_ten_thousand_clause_conjunction(self):
        text = " & ".join(["p"] * 10_000)
        f = parse_formula(text)
        assert render(f) == text
        assert parse_formula(render(f)) == f
        assert size(f) == 19_999

    def test_two_thousand_parentheses(self):
        assert parse_formula("(" * 2000 + "p" + ")" * 2000) == p
        f = parse_formula("#(" * 2000 + "p" + ")" * 2000)
        assert render(f) == "#" * 2000 + "p"
