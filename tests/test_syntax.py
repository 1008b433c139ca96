import copy
import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from fdek.syntax import (
    LANG_BOX, LANG_TRI, And, Atom, Box, Not, Or, ParseError, Sequent,
    Tri, modal_depth, parse_formula,
    parse_sequent, postorder, render, render_sequent, size, subformulas, variables,
)

from reference_impl import modal_depth_by_postorder

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
        with pytest.raises(ParseError, match="duplicate"):
            parse_sequent("p |- q |- r")

    def test_missing_turnstile(self):
        with pytest.raises(ParseError, match="missing"):
            parse_sequent("p & q")


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
        assert not any(isinstance(sub, Box) for sub in postorder(f))
        assert all(not any(isinstance(g, Box) for g in postorder(sub))
                   for sub in subformulas(f))

    @pytest.mark.parametrize("text,depth", [
        ("p", 0), ("~(p & q) | p", 0), ("#p", 1), ("[]p", 1), ("@p", 1), ("<>p", 1),
        ("p & ##q", 2), ("[]#p", 2), ("#p | ~[](q & #[]r)", 3)])
    def test_modal_depth(self, text, depth):
        # Both modalities count; the sugar @ and <> is one modality each.
        assert modal_depth(parse_formula(text)) == depth

    def test_modal_depth_of_several_formulas_is_the_deepest(self):
        s = parse_sequent("##p |- #p | []q")
        assert modal_depth(s.premise, s.conclusion) == 2
        assert modal_depth(s.conclusion) == 1
        assert modal_depth() == 0

    @given(formulas(names=("p", "q", "r")), formulas(LANG_BOX, names=("p", "q")))
    def test_modal_depth_matches_the_children_first_fold(self, f, g):
        assert modal_depth(f, g) == modal_depth_by_postorder(f, g)
        assert modal_depth(And(f, g)) == modal_depth_by_postorder(And(f, g))

    def test_modal_depth_of_shared_subterms(self):
        # 2^60 paths lead down this formula; the walk visits each node
        # object once per depth above it.
        f = p
        for _ in range(60):
            f = And(Tri(f), f)
        assert modal_depth(f) == 60

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
        order = postorder(f)
        assert len(order) == len(set(order))
        assert set(order) == subformulas(f) == _subtrees(f)
        place = {g: i for i, g in enumerate(order)}
        assert all(place[c] < place[g] for g in order for c in _children(g))

    def test_postorder_skips_what_is_given(self):
        f = And(Tri(p), Or(q, Tri(p)))
        assert postorder(f, skip={Tri(p)}) == [q, Or(q, Tri(p)), f]
        assert postorder(f, p, skip={f}) == [p]

    def test_class_and_child_order_matter(self):
        # Distinct nodes hash apart but for a collision of 64-bit hashes.
        for a, b in [(Not(p), Tri(p)), (Tri(p), Box(p)), (And(p, q), Or(p, q)),
                     (And(p, q), And(q, p)), (Not(p), Not(q))]:
            assert a != b and not a == b
            assert hash(a) != hash(b)

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
        assert modal_depth(parse_formula("#" * 2000 + "p")) == 2000
        assert modal_depth(parse_formula("#~" * 2000 + "p & []p")) == 2000

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
