from itertools import count

import pytest
from hypothesis import given, strategies as st

from polagram import (
    Atom, Bin, BoxDown, Dia, FLeaf, Over, Product, Sequent, Un, Under,
    UNIT, UNIT_LEAF, NP, S, S0, SPLUS, SMINUS,
    CMODE, DEFAULT, PMODE, UMODE, VALUE,
    SyntaxErrorWithPos, load_lexicon, parse_formula, parse_sequent,
    parse_structure, print_formula, print_structure,
)
from polagram.core import replace, subtree
from polagram.jsonform import structure_from_dict, structure_to_dict
from test_prover import _open_sites


def test_parse_atom():
    assert parse_formula("np") == Atom("np")


def test_clause_type_abbreviations():
    assert parse_formula("s0") == Dia(UMODE, S)
    assert parse_formula("s+") == Dia(UMODE, BoxDown(PMODE, Dia(PMODE, S)))
    assert parse_formula("s-") == BoxDown(PMODE, Dia(PMODE, Dia(UMODE, S)))


def test_parse_quantifier_type():
    f = parse_formula("s0 /c (np \\c s-)")
    assert f == Over(CMODE, S0, Under(CMODE, NP, SMINUS))


def test_parse_verb_type():
    f = parse_formula("(np \\ s0) / np")
    assert f == Over(DEFAULT, Under(DEFAULT, NP, S0), NP)


def test_unknown_atoms_accepted():
    f = parse_formula("dog / cat")
    assert f == Over(DEFAULT, Atom("dog"), Atom("cat"))


def test_slash_associativity():
    assert parse_formula("a / b / c") == \
        Over(DEFAULT, Over(DEFAULT, Atom("a"), Atom("b")), Atom("c"))
    assert parse_formula("a \\ b \\ c") == \
        Under(DEFAULT, Atom("a"), Under(DEFAULT, Atom("b"), Atom("c")))


def test_mixed_slash_directions_rejected():
    with pytest.raises(SyntaxErrorWithPos):
        parse_formula("a / b \\ c")


def test_syntax_error_carries_position():
    with pytest.raises(SyntaxErrorWithPos) as err:
        parse_formula("np / (s0")
    assert err.value.pos == 8


@pytest.mark.parametrize("parse, text, message, column", [
    (parse_structure, "np <x> np", "expected '<>', '<u>' or '<p>'", 3),
    (parse_formula, "[x]np", "expected '[]', '[u]' or '[p]'", 0),
    (parse_structure, "np ? np", "unexpected character '?'", 3),
    # trailing text after a whole formula
    (parse_formula, "np np", "unexpected 'np'", 3),
    (parse_sequent, "np * np", "expected '|-' between antecedent and "
     "succedent", 7),
])
def test_a_syntax_error_names_its_column(parse, text, message, column):
    with pytest.raises(SyntaxErrorWithPos) as err:
        parse(text)
    assert err.value.pos == column
    assert str(err.value) == f"{message} (at column {column})"


def test_print_abbreviations():
    assert print_formula(Dia(UMODE, S)) == "s0"
    assert print_formula(SPLUS) == "s+"
    assert print_formula(parse_formula("s0 /c (np \\c s-)")) \
        == "s0 /c (np \\c s-)"


def test_unit_is_parseable_but_never_lexical():
    assert parse_formula("1") == UNIT
    assert print_formula(UNIT) == "1"


# -- random round trips ------------------------------------------------------

_atoms = st.sampled_from(["np", "s", "pp", "n", "q"])


def _formulas(depth):
    base = st.one_of(_atoms.map(Atom), st.just(UNIT),
                     st.sampled_from([S0, SPLUS, SMINUS]))
    if depth == 0:
        return base
    sub = _formulas(depth - 1)
    bmode = st.sampled_from([DEFAULT, CMODE])
    umode = st.sampled_from([VALUE, UMODE, PMODE])
    return st.one_of(
        base,
        st.builds(Product, bmode, sub, sub),
        st.builds(Over, bmode, sub, sub),
        st.builds(Under, bmode, sub, sub),
        st.builds(Dia, umode, sub),
        st.builds(BoxDown, umode, sub),
    )


@given(_formulas(3))
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(_formulas(2), _formulas(2))
def test_formula_equality_is_structural(f, g):
    assert (f == g) == (print_formula(f) == print_formula(g))


def _structures(depth):
    leaf = st.one_of(st.builds(FLeaf, _formulas(2)),
                     st.builds(FLeaf, _formulas(1), st.just("w"),
                               st.integers(0, 3)),
                     st.just(UNIT_LEAF))
    if depth == 0:
        return leaf
    sub = _structures(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Bin, st.sampled_from([DEFAULT, CMODE]), sub, sub),
        st.builds(Un, st.sampled_from([VALUE, UMODE, PMODE]), sub),
    )


@given(_structures(2), _structures(2))
def test_structure_equality_is_structural(a, b):
    # labels included: the serialized form records words and positions
    assert (a == b) == (structure_to_dict(a) == structure_to_dict(b))


def _has_cmode_connective(key):
    return "/c(" in key or "\\c(" in key or "*c(" in key


@given(_formulas(3))
def test_formula_flag_matches_key_probe(f):
    assert f.has_cmode == _has_cmode_connective(f.key)


@given(_structures(3))
def test_structure_flags_match_key_probes(s):
    # the key substrings the flags replace, kept here as their oracle
    assert s.has_cmode_node == ("Bc(" in s.key)
    assert s.has_unit == ("!" in s.key)
    # a c-mode formula counts only at an open site, outside every unary node
    assert s.has_open_cmode_formula == any(
        isinstance(node, FLeaf) and _has_cmode_connective(node.formula.key)
        for _site, node in _open_sites(s))
    # so does a quote: a value-mode unary node at an open site
    assert s.has_open_quote == any(
        isinstance(node, Un) and node.mode == VALUE
        for _site, node in _open_sites(s))


# -- structures and sequents -------------------------------------------------

def test_parse_structure_words(lex):
    st_ = parse_structure("nobody * (saw * anybody)", lex)
    assert isinstance(st_, Bin) and st_.mode == DEFAULT
    assert st_.left.word == "nobody" and st_.left.pos == 0
    assert st_.right.right.word == "anybody" and st_.right.right.pos == 2
    assert st_.left.formula == parse_formula("s0 /c (np \\c s-)")


def test_parse_structure_unit_and_diamond(lex):
    st_ = parse_structure("np *c ((1 * <>anybody) * <>saw)", lex)
    assert isinstance(st_, Bin) and st_.mode == CMODE
    inner = st_.right.left
    assert inner.left is UNIT_LEAF
    assert isinstance(inner.right, Un) and inner.right.mode == VALUE


def test_parse_structure_formula_leaf():
    st_ = parse_structure("np * (np \\ s0)")
    assert isinstance(st_.right, FLeaf)
    assert st_.right.formula == Under(DEFAULT, NP, S0)


def test_formula_leaf_positions_count_from_zero():
    # a slash is one formula leaf, numbered once: the atoms under it are
    # not leaves of the structure and take no position
    assert parse_structure("np / np").pos == 0
    st_ = parse_structure("(np / np) * np")
    assert (st_.left.pos, st_.right.pos) == (0, 1)
    assert st_ == Bin(DEFAULT, FLeaf(Over(DEFAULT, NP, NP), pos=0),
                      FLeaf(NP, pos=1))


def test_structure_print_round_trip(lex):
    for text in ["nobody * (saw * anybody)",
                 "np *c ((1 * <>anybody) * <>saw)",
                 "<>np * (<u>s * 1)"]:
        st_ = parse_structure(text, lex)
        again = parse_structure(print_structure(st_), lex)
        assert again == st_


# -- reading structure text off the formula tree -----------------------------

# no word here is spelled like an abbreviation: the printer could not tell
# such a word from the unworded leaf
_ROUND_TRIP_LEXICON = load_lexicon(
    "alice := np\nsaw := (np \\ s0) / np\na man := s0 /c (np \\c s0)\n")


def _printable_leaves():
    bmode = st.sampled_from([DEFAULT, CMODE])
    umode = st.sampled_from([VALUE, UMODE, PMODE])
    sub = _formulas(1)
    unworded = st.one_of(
        st.sampled_from(["np", "s", "pp"]).map(Atom),
        st.builds(Over, bmode, sub, sub),
        st.builds(Under, bmode, sub, sub),
        st.builds(BoxDown, umode, sub),
        st.sampled_from([S0, SPLUS, SMINUS]))
    worded = st.sampled_from(_ROUND_TRIP_LEXICON.words()).map(
        lambda word: FLeaf(_ROUND_TRIP_LEXICON.lookup(word)[0], word=word))
    return st.one_of(unworded.map(FLeaf), worded, st.just(UNIT_LEAF))


def _printable_structures(depth):
    if depth == 0:
        return _printable_leaves()
    sub = _printable_structures(depth - 1)
    return st.one_of(
        _printable_leaves(),
        st.builds(Bin, st.sampled_from([DEFAULT, CMODE]), sub, sub),
        st.builds(Un, st.sampled_from([VALUE, UMODE, PMODE]), sub))


def _numbered(s, positions):
    """``s`` with its formula leaves numbered left to right."""
    if isinstance(s, Bin):
        return Bin(s.mode, _numbered(s.left, positions),
                   _numbered(s.right, positions))
    if isinstance(s, Un):
        return Un(s.mode, _numbered(s.body, positions))
    if isinstance(s, FLeaf):
        return FLeaf(s.formula, s.word, next(positions))
    return s


@given(_printable_structures(3).map(lambda s: _numbered(s, count())))
def test_structure_text_round_trip(s):
    assert parse_structure(print_structure(s), _ROUND_TRIP_LEXICON) == s


def _braced_leaves():
    """Unworded leaves whose formula, printed bare, would read back as
    structure: a product, a diamond other than an abbreviation, the unit."""
    sub = _formulas(1)
    return st.one_of(
        st.builds(Product, st.sampled_from([DEFAULT, CMODE]), sub, sub),
        st.builds(Dia, st.sampled_from([VALUE, UMODE, PMODE]), sub).filter(
            lambda f: f not in (S0, SPLUS)),
        st.just(UNIT)).map(FLeaf)


def _structures_with_braced_leaves(depth):
    sub = _printable_structures(depth - 1)
    braced = _braced_leaves()
    return st.one_of(
        braced,
        st.builds(Bin, st.sampled_from([DEFAULT, CMODE]), braced, sub),
        st.builds(Bin, st.sampled_from([DEFAULT, CMODE]), sub, braced),
        st.builds(Un, st.sampled_from([VALUE, UMODE, PMODE]), braced))


@given(_structures_with_braced_leaves(3).map(
    lambda s: _numbered(s, count())))
def test_braced_leaves_round_trip(s):
    text = print_structure(s)
    assert "{" in text
    assert parse_structure(text, _ROUND_TRIP_LEXICON) == s


@pytest.mark.parametrize("leaf, text", [
    (FLeaf(Product(CMODE, NP, S)), "{np *c s}"),
    (FLeaf(Dia(VALUE, NP)), "{<>np}"),
    (FLeaf(UNIT), "{1}"),
    (FLeaf(Dia(UMODE, S)), "s0"),
])
def test_a_leaf_that_reads_as_structure_prints_in_braces(leaf, text):
    assert print_structure(leaf) == text
    assert parse_structure(text) == FLeaf(leaf.formula, pos=0)


@pytest.mark.parametrize("text, column", [
    ("{np} / np", 0),
    ("np \\ ({np} * s)", 6),
    ("[]{np}", 2),
    ("{{np}}", 1),
])
def test_a_braced_leaf_stands_only_where_a_structure_can(text, column):
    with pytest.raises(SyntaxErrorWithPos) as err:
        parse_structure(text)
    assert err.value.pos == column


def test_formula_text_has_no_braces():
    with pytest.raises(SyntaxErrorWithPos):
        parse_formula("{np}")


_A, _B, _C = Atom("a"), Atom("b"), Atom("c")
_SAW = parse_formula("(np \\ s0) / np")

_READINGS = [
    # a written-out diamond is structural, an abbreviation is one leaf
    ("<u>s", None, Un(UMODE, FLeaf(S, pos=0))),
    ("s0", None, FLeaf(S0, pos=0)),
    ("<u>s0", None, Un(UMODE, FLeaf(S0, pos=0))),
    ("<u>[p]<p>s", None,
     Un(UMODE, FLeaf(BoxDown(PMODE, Dia(PMODE, S)), pos=0))),
    # a box-down binds tighter than the product and is one leaf
    ("[]a * b", None,
     Bin(DEFAULT, FLeaf(BoxDown(VALUE, _A), pos=0), FLeaf(_B, pos=1))),
    # a slash at the top makes the whole text one leaf
    ("<> a / b * c", None,
     FLeaf(Over(DEFAULT, Dia(VALUE, _A), Product(DEFAULT, _B, _C)), pos=0)),
    # the lexicon is consulted before the abbreviations
    ("s0 * saw", "s0 := np\nsaw := (np \\ s0) / np\n",
     Bin(DEFAULT, FLeaf(NP, word="s0", pos=0),
         FLeaf(_SAW, word="saw", pos=1))),
]


@pytest.mark.parametrize("text, lexicon_text, expected", _READINGS,
                         ids=[text for text, _, _ in _READINGS])
def test_structure_text_reading(text, lexicon_text, expected):
    lexicon = load_lexicon(lexicon_text) if lexicon_text else None
    assert parse_structure(text, lexicon) == expected


def test_word_labels_are_part_of_the_key():
    plain = Sequent(FLeaf(NP), NP)
    worded = Sequent(FLeaf(NP, word="alice", pos=0), NP)
    assert plain != worded
    assert plain.key != worded.key


def test_keys_distinguish_content():
    a = Sequent(FLeaf(NP), NP)
    b = Sequent(FLeaf(S), S)
    assert a.key != b.key


def test_parse_sequent(lex):
    seq = parse_sequent("nobody * (saw * anybody) |- s0", lex)
    assert seq.succedent == S0
    assert seq.antecedent.left.word == "nobody"


def test_a_site_steps_0_or_1_at_a_binary_node_and_0_at_a_unary_one():
    def tree(first, last):  # <p>first * (np * last)
        return Bin(DEFAULT, Un(PMODE, FLeaf(first)),
                   Bin(DEFAULT, FLeaf(NP), FLeaf(last)))
    st = tree(NP, S0)
    assert subtree(st, (0, 0)) == FLeaf(NP)
    assert subtree(st, (1, 1)) == FLeaf(S0)
    assert replace(st, (0, 0), FLeaf(S)) == tree(S, S0)
    assert replace(st, (1, 1), FLeaf(S)) == tree(NP, S)
    for bad in [(7,), (1, 7), (-1,), (0, 1), (0, 0, 0)]:
        # step 7 or -1 at a binary node, step 1 at a unary node, any step at
        # a leaf
        with pytest.raises(IndexError):
            subtree(st, bad)
        with pytest.raises(IndexError):
            replace(st, bad, FLeaf(S))


@pytest.mark.parametrize("build, message", [
    (lambda: Atom(""), "empty atom name"),
    (lambda: Product(UMODE, NP, NP), "bad binary mode 'u'"),
    (lambda: Over(PMODE, S, NP), "bad binary mode 'p'"),
    (lambda: Under("x", NP, S), "bad binary mode 'x'"),
    (lambda: Dia("x", NP), "bad unary mode 'x'"),
    (lambda: BoxDown(CMODE, NP), "bad unary mode 'c'"),
])
def test_a_formula_is_checked_when_built(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("show, other_kind", [
    (print_formula, FLeaf(NP)),      # a structure is no formula
    (print_structure, NP),           # and a formula no structure
    (structure_to_dict, NP),
])
def test_printing_refuses_what_is_not_its_kind(show, other_kind):
    with pytest.raises(TypeError, match="not a"):
        show(other_kind)


def test_a_formula_shows_its_syntax():
    assert repr(parse_formula("s0 /c (np \\c s-)")) \
        == "<Formula s0 /c (np \\c s-)>"


@pytest.mark.parametrize("d, message", [
    ({"bin": "u", "left": {"leaf": "np"}, "right": {"leaf": "np"}},
     "bad binary mode 'u'"),
    ({"un": "c", "body": {"leaf": "np"}}, "bad unary mode 'c'"),
    ({"node": "np"}, "not a structure dict: {'node': 'np'}"),
])
def test_a_structure_dict_from_outside_is_checked(d, message):
    # a derivation read back from JSON names its structures' modes
    with pytest.raises(ValueError) as err:
        structure_from_dict(d)
    assert str(err.value) == message
