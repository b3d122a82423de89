import gc
import importlib.util
import time
from dataclasses import replace
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

import polagram.judgment
import polagram.parser
from polagram import (
    Bin, FLeaf, GRAMMATICAL, UNGRAMMATICAL, S0, SPLUS, Sequent,
    UNKNOWN, SearchBudget, bracketings, judge, load_lexicon, parse_sentence,
    predict, quantifier_occurrences, tokenize, validate_derivation,
)
from polagram.cli import BUILTIN_CORPUS
from polagram.core import DEFAULT
from polagram.prover import _skeleton_refutes

GATE = Path(__file__).resolve().parents[1] / "bench" / "gate.py"


def _catalan(n):
    from math import comb
    return comb(2 * n, n) // (n + 1)


def test_bracketing_counts(lex):
    assert len(bracketings(["alice", "saw", "bob"], lex)) == 2
    assert len(bracketings(["alice"], lex)) == 1
    five = bracketings(["nobody", "'s mother", "saw", "anybody", "'s father"],
                       lex)
    assert len(five) == _catalan(4)


def test_bracketing_shape_and_positions(lex):
    trees = bracketings(["nobody", "saw", "anybody"], lex)
    shapes = {str(t) for t in trees}
    assert shapes == {"nobody * (saw * anybody)", "nobody * saw * anybody"}
    for tree in trees:
        leaves = []
        def walk(node):
            if isinstance(node, FLeaf):
                leaves.append((node.word, node.pos))
            else:
                walk(node.left), walk(node.right)
        walk(tree)
        assert leaves == [("nobody", 0), ("saw", 1), ("anybody", 2)]


def test_no_tokens_have_no_bracketing(lex):
    with pytest.raises(ValueError, match="no tokens"):
        bracketings([], lex)


def test_bracketings_stop_at_their_stop_time(lex):
    # the clock is read before each tree node is built, so a stop time
    # already reached builds none, and one not reached changes nothing
    tokens = ["nobody", "'s mother", "saw", "anybody", "'s father"]
    assert bracketings(tokens, lex, stop_at=time.monotonic()) == []
    assert bracketings(tokens, lex, stop_at=time.monotonic() + 3600) \
        == bracketings(tokens, lex)


def test_single_token_bracketing(lex):
    [tree] = bracketings(["alice"], lex)
    assert isinstance(tree, FLeaf) and tree.word == "alice"


def test_ambiguous_word_multiplies_bracketings(lex):
    two_typed = load_lexicon(lex.to_text() + "bank := np\nbank := pp\n")
    assert len(bracketings(["alice", "saw", "bank"], two_typed)) == 4


def _reference_shapes(leaves):
    """Every binary surface-mode tree over ``leaves``, each subtree built
    afresh: the plain enumeration ``bracketings`` must agree with."""
    if len(leaves) == 1:
        return [leaves[0]]
    return [Bin(DEFAULT, left, right) for k in range(1, len(leaves))
            for left in _reference_shapes(leaves[:k])
            for right in _reference_shapes(leaves[k:])]


def _reference_bracketings(tokens, lex):
    choices = [[FLeaf(f, word=tok, pos=i) for f in lex.lookup(tok)]
               for i, tok in enumerate(tokens)]
    return [tree for leaves in product(*choices)
            for tree in _reference_shapes(leaves)]


POSSESSIVE_CHAINS = ["Alice" + "'s mother" * n + " saw Bob" for n in range(6)]


@pytest.mark.parametrize("sentence", POSSESSIVE_CHAINS + ["Alice saw bank"])
def test_bracketings_match_the_plain_enumeration(lex, sentence):
    two_typed = load_lexicon(lex.to_text() + "bank := np\nbank := pp\n")
    tokens = tokenize(sentence, two_typed)
    assert [tree.key for tree in bracketings(tokens, two_typed)] == \
        [tree.key for tree in _reference_bracketings(tokens, two_typed)]


def _subtrees(st):
    yield st
    if isinstance(st, Bin):
        yield from _subtrees(st.left)
        yield from _subtrees(st.right)


def test_bracketings_share_subtrees(lex):
    # every word has one type here, so all trees come from one choice of
    # leaves, and a span's trees are built once for all of them
    tokens = tokenize(POSSESSIVE_CHAINS[3], lex)
    trees = bracketings(tokens, lex)
    assert len(trees) == _catalan(len(tokens) - 1)
    by_key = {}
    for tree in trees:
        for node in _subtrees(tree):
            assert by_key.setdefault(node.key, node) is node


def test_licensing_sentence(parsed):
    result = parsed("Nobody saw anybody")
    assert result.verdict == GRAMMATICAL
    assert [r.scope_order for r in result.readings] \
        == [(("nobody", 0), ("anybody", 2))]


def test_reversed_licensing(parsed):
    assert parsed("Anybody saw nobody").verdict == UNGRAMMATICAL


def test_unlicensed_polarity_item(parsed):
    assert parsed("Everybody saw anybody").verdict == UNGRAMMATICAL
    assert parsed("Alice saw anybody").verdict == UNGRAMMATICAL


def test_scope_ambiguity(parsed):
    result = parsed("Somebody saw everybody")
    assert result.verdict == GRAMMATICAL
    assert {r.scope_order for r in result.readings} == {
        (("somebody", 0), ("everybody", 2)),
        (("everybody", 2), ("somebody", 0)),
    }


def test_possessive_licensing(parsed):
    assert parsed("Nobody's mother saw anybody's father").verdict \
        == GRAMMATICAL
    assert parsed("Anybody's mother saw nobody's father").verdict \
        == UNGRAMMATICAL


def test_in_situ_quantifier(parsed):
    result = parsed("Alice saw a man's mother")
    assert result.verdict == GRAMMATICAL
    assert [r.scope_order for r in result.readings] == [(("a man", 2),)]


def test_verdict_invariant_under_case_and_punctuation(lex, parsed):
    for variant in ["nobody saw anybody", "NOBODY SAW ANYBODY",
                    "Nobody saw anybody.", "Nobody saw anybody!"]:
        result = parse_sentence(variant, lex)
        assert result.verdict == GRAMMATICAL
        assert [r.scope_order for r in result.readings] \
            == [r.scope_order for r in parsed("Nobody saw anybody").readings]


def test_unused_lexicon_entries_do_not_change_verdicts(lex):
    extended = load_lexicon(lex.to_text() + "dog := np\nbarked := np \\ s0\n")
    for sentence, verdict in [("Nobody saw anybody", GRAMMATICAL),
                              ("Anybody saw nobody", UNGRAMMATICAL)]:
        assert parse_sentence(sentence, extended).verdict == verdict


def test_complete_derivation_criterion(parsed):
    # every returned derivation starts from a surface-mode tree and ends in
    # an unquotable clause type
    for sentence in ["Nobody saw anybody", "Somebody saw everybody",
                     "Alice saw Bob"]:
        result = parsed(sentence)
        for d in result.derivations:
            assert d.conclusion.succedent in (S0, SPLUS)
            def all_default(node):
                if isinstance(node, Bin):
                    return node.mode == DEFAULT and all_default(node.left) \
                        and all_default(node.right)
                return isinstance(node, FLeaf)
            assert all_default(d.conclusion.antecedent)
            assert validate_derivation(d)


def test_readings_iff_derivations(parsed):
    for sentence in ["Nobody saw anybody", "Anybody saw nobody"]:
        result = parsed(sentence)
        assert bool(result.readings) == bool(result.derivations)
        assert (result.verdict == GRAMMATICAL) == bool(result.derivations)


def test_goal_override(lex):
    from polagram import NP, S0
    assert parse_sentence("Nobody saw anybody", lex,
                          goals=(NP,)).verdict == UNGRAMMATICAL
    assert parse_sentence("Nobody saw anybody", lex,
                          goals=(S0,)).verdict == GRAMMATICAL


def test_parse_sentence_calls_prove_per_tree_and_goal(lex, monkeypatch):
    # benchmark tooling wraps polagram.parser.prove and reads the budget
    # from its second positional argument
    import polagram.parser
    calls = []
    original = polagram.parser.prove

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(polagram.parser, "prove", spy)
    sentence = "Alice saw a man's mother"
    parse_sentence(sentence, lex)
    trees = bracketings(tokenize(sentence, lex), lex)
    assert len(calls) == 2 * len(trees)
    assert all(isinstance(args[1], SearchBudget) for args in calls)


def test_the_deadline_and_the_collector_pause_cover_bracketings(
        lex, monkeypatch):
    # an enumeration of trees slower than the deadline leaves the parse
    # undecided, and it runs with the collector paused
    import polagram.parser
    collecting = []
    original = polagram.parser.bracketings

    def slow(*args, **kwargs):
        collecting.append(gc.isenabled())
        time.sleep(0.2)
        return original(*args, **kwargs)

    monkeypatch.setattr(polagram.parser, "bracketings", slow)
    was = gc.isenabled()
    gc.enable()
    try:
        result = parse_sentence("Alice saw Bob", lex, deadline=0.1)
    finally:
        (gc.enable if was else gc.disable)()
    assert result.verdict == UNKNOWN and result.timed_out
    assert collecting == [False]


def test_a_zero_deadline_builds_no_tree(lex, monkeypatch):
    # thirteen tokens have 208,012 trees, which the enumeration would build
    # before its first search; the deadline cuts it before the first
    sentence = "Alice" + "'s mother" * 10 + " saw Bob"
    original = polagram.parser.bracketings
    built = []

    def counted(*args, **kwargs):
        trees = original(*args, **kwargs)
        built.append(len(trees))
        return trees

    monkeypatch.setattr(polagram.parser, "bracketings", counted)
    result = parse_sentence(sentence, lex, deadline=0)
    assert built == [0]
    assert result.verdict == UNKNOWN and result.timed_out


def test_a_deadline_reached_between_searches_skips_the_rest(
        lex, monkeypatch):
    # a clock that stands still until the first search ends, then jumps
    # past the deadline: the one search run found nothing, so the parse is
    # undecided, not ungrammatical
    now = [0.0]
    searches = []
    original = polagram.parser.prove

    def first_search_takes_an_hour(*args, **kwargs):
        searches.append(args[0])
        result = original(*args, **kwargs)
        now[0] += 3600
        return result

    monkeypatch.setattr(polagram.parser, "time",
                        SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(polagram.parser, "prove", first_search_takes_an_hour)
    result = parse_sentence("Anybody saw nobody", lex, deadline=60)
    assert len(searches) == 1
    assert result.verdict == UNKNOWN and result.timed_out
    monkeypatch.undo()
    assert parse_sentence("Anybody saw nobody", lex, deadline=60).verdict \
        == UNGRAMMATICAL


def test_a_scope_taker_without_a_skeleton_leaves_the_verdict_to_the_search():
    # ``s0 /c np`` is a c-mode type but no scope-taker ``Out /c (np \\c In)``,
    # so it has no skeleton, the skeleton check abstains and the search
    # refutes
    lex = load_lexicon("alice := np\nsaw := (np \\ s0) / np\nw := s0 /c np\n")
    [tree, _] = bracketings(tokenize("Alice saw w", lex), lex)
    assert not _skeleton_refutes(Sequent(tree, S0))
    result = parse_sentence("Alice saw w", lex)
    assert result.verdict == UNGRAMMATICAL and not result.timed_out


def test_a_nan_deadline_is_refused_before_any_search(lex, monkeypatch):
    # no clock reading passes a NaN deadline, so the searches would never
    # time out; the parse refuses it before it builds a tree
    import polagram.parser
    built = []
    monkeypatch.setattr(polagram.parser, "bracketings",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError):
        parse_sentence("Nobody saw anybody", lex, deadline=float("nan"))
    assert built == []


def test_no_goal_types_are_refused_before_any_search(lex, monkeypatch):
    # with no goal type there is nothing to search, so "ungrammatical"
    # would be a verdict no search reached; the parse refuses it before it
    # builds a tree
    import polagram.parser
    built = []
    monkeypatch.setattr(polagram.parser, "bracketings",
                        lambda *args: built.append(args))
    with pytest.raises(ValueError):
        parse_sentence("Nobody saw anybody", lex, goals=())
    assert built == []


# -- the collector -------------------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("deadline", [None, 0.0])
def test_parse_sentence_restores_the_collector_state(lex, monkeypatch,
                                                     enabled, deadline):
    # one pause spans the whole tree loop: every prove call starts with the
    # collector off, and the caller's setting is back afterwards
    import polagram.parser
    collecting = []
    original = polagram.parser.prove

    def spy(*args, **kwargs):
        collecting.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(polagram.parser, "prove", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        parse_sentence("Nobody saw anybody", lex, deadline=deadline)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert not any(collecting)
    assert bool(collecting) == (deadline is None)


@pytest.mark.parametrize("sentence", ["Nobody saw anybody",
                                      "Anybody saw nobody"])
def test_parse_sentence_leaves_no_cyclic_garbage(lex, sentence):
    # with the collector off, anything the parse left in a reference cycle
    # would still be there for the next collection to find
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        parse_sentence(sentence, lex)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_no_move_table_outlives_the_collector_pause(lex, monkeypatch):
    # the collector is back on only once the last tree's table is gone, so
    # no collection ever scans a table; a threshold of 1 sets one off at
    # nearly every allocation the parse makes with the collector on
    import polagram.parser
    live = [0]

    class CountedTable(polagram.parser.MoveTable):
        def __init__(self):
            super().__init__()
            live[0] += 1

        def __del__(self):
            live[0] -= 1

    def record(phase, info):
        if phase == "start":
            at_start.append(live[0])

    monkeypatch.setattr(polagram.parser, "MoveTable", CountedTable)
    at_start = []
    was, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(1)
    gc.callbacks.append(record)
    try:
        parse_sentence("Nobody saw anybody", lex)
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
        (gc.enable if was else gc.disable)()
    assert at_start and not any(at_start)
    assert live == [0]


# -- judging a parse ----------------------------------------------------------

def test_judge_gives_the_reasons_of_the_benchmark_gate(parsed, machine,
                                                       monkeypatch):
    # the benchmark's gate, loaded from its file, on the five cases its own
    # test_gate_reasons builds
    spec = importlib.util.spec_from_file_location("bench_gate", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    sentence = "Somebody saw everybody"
    result = parsed(sentence)
    [expected] = [line for line in BUILTIN_CORPUS
                  if line.sentence == sentence]
    admissible = predict(machine,
                         quantifier_occurrences(result.tokens, machine))
    cases = [
        (result, 0),
        (replace(result, timed_out=True), 0),
        (result, 1),
        (replace(result, readings=result.readings[:1]), 0),
        (replace(result, verdict=UNGRAMMATICAL, readings=[]), 0),
    ]
    counts = []
    for case, invalid in cases:
        first = case.derivations[0]
        with monkeypatch.context() as patch:
            if invalid:
                patch.setattr(polagram.judgment, "validate_derivation",
                              lambda d: d is not first)
            judgment = judge(case, machine, expected)
        assert judgment.result is case and judgment.invalid == invalid
        assert judgment.admissible == admissible
        assert list(judgment.reasons) \
            == gate.check(case, admissible, expected, invalid)
        counts.append(len(judgment.reasons))
    assert counts == [0, 1, 1, 2, 4]

