import pytest

from polagram import (
    LexiconError, load_lexicon, parse_formula, tokenize,
    quantifier_shape, S0, SPLUS, SMINUS,
)


def test_default_entries(lex):
    expected = {
        "alice": "np",
        "bob": "np",
        "saw": "(np \\ s0) / np",
        "introduced": "((np \\ s0) / pp) / np",
        "to": "pp / np",
        "'s mother": "np \\ np",
        "'s father": "np \\ np",
        "a man": "s0 /c (np \\c s0)",
        "nobody": "s0 /c (np \\c s-)",
        "anybody": "s- /c (np \\c s-)",
        "somebody": "s+ /c (np \\c s+)",
        "everybody": "s0 /c (np \\c s+)",
    }
    assert set(lex.words()) == set(expected)
    for word, text in expected.items():
        assert lex.lookup(word) == (parse_formula(text),)


def test_lookup_case_insensitive(lex):
    assert lex.lookup("Nobody") == lex.lookup("nobody")
    assert "Alice" in lex


def test_round_trip_through_text(lex):
    assert load_lexicon(lex.to_text()) == lex


def test_load_single_entry():
    loaded = load_lexicon("dog := np\n")
    assert loaded.lookup("dog") == (parse_formula("np"),)


def test_load_matches_default_entry(lex):
    loaded = load_lexicon("nobody := s0 /c (np \\c s-)")
    assert loaded.lookup("nobody") == lex.lookup("nobody")


def test_load_alternative_types_append():
    loaded = load_lexicon("dog := np\ndog := n\n")
    assert len(loaded.lookup("dog")) == 2


def test_load_malformed_line_reports_lineno():
    with pytest.raises(LexiconError, match="line 1"):
        load_lexicon("dog np")


def test_load_bad_formula_reports_lineno():
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon("dog := np\ncat := ((np\n")


def test_load_too_deep_formula_reports_lineno():
    with pytest.raises(LexiconError, match="line 2: nested more than"):
        load_lexicon("dog := np\ndeep := " + "<>" * 3000 + "np\n")


def test_load_empty():
    assert load_lexicon("").words() == ()
    assert load_lexicon("# just a comment\n\n").words() == ()


def test_tokenize_basic(lex):
    assert tokenize("Nobody saw anybody.", lex) == ["nobody", "saw", "anybody"]


def test_tokenize_multiword(lex):
    assert tokenize("Alice saw a man's mother", lex) == \
        ["alice", "saw", "a man", "'s mother"]


def test_tokenize_possessive_quantifiers(lex):
    assert tokenize("Nobody's mother saw anybody's father", lex) == \
        ["nobody", "'s mother", "saw", "anybody", "'s father"]


def test_tokenize_unknown_word_position(lex):
    with pytest.raises(LexiconError, match="'aardvark' at position 2"):
        tokenize("Alice saw aardvark", lex)


def test_quantifier_types_have_scope_shape(lex):
    # every scope-taking entry is Out /c (np \c In) over clause types
    clause_types = {S0, SPLUS, SMINUS}
    quantifiers = {"a man", "nobody", "anybody", "somebody", "everybody"}
    for word in lex.words():
        for f in lex.lookup(word):
            shape = quantifier_shape(f)
            if word in quantifiers:
                assert shape is not None, word
                out_f, in_f = shape
                assert out_f in clause_types and in_f in clause_types
            else:
                assert shape is None, word
