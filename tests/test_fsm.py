import gc
import hashlib
from pathlib import Path

import pytest

from polagram import (
    GRAMMATICAL, CorpusLine, Lexicon, PolState, QuantifierShapeError,
    Reading, Run, accepting_runs, evaluation_order_ok, judge, load_lexicon,
    machine_from_lexicon, parse_sentence, predict, quantifier_occurrences,
    tokenize,
)
from polagram.cli import parse_corpus
from polagram.fsm import EPSILON
from test_prover import _digest_line

POS, NEU, NEG = PolState.POS, PolState.NEU, PolState.NEG


def test_machine_from_default_lexicon(machine):
    assert dict((w, (a, b)) for w, a, b in machine.transitions) == {
        "a man": (NEU, NEU),
        "nobody": (NEU, NEG),
        "anybody": (NEG, NEG),
        "somebody": (POS, POS),
        "everybody": (NEU, POS),
    }
    assert machine.starts == {POS, NEU}
    assert machine.final == NEU
    assert machine.epsilon == {(POS, NEU), (NEG, NEU)}


def test_machine_from_empty_lexicon():
    machine = machine_from_lexicon(Lexicon([]))
    assert machine.transitions == ()
    assert machine.epsilon == {(POS, NEU), (NEG, NEU)}


def test_malformed_quantifier_rejected():
    # a scope-taker over a slot that is no clause type, and a continuation
    # functor over something other than np, which the machine would
    # otherwise read as a word that takes no scope
    for entry in ("gadget := s0 /c (np \\c np)\n",
                  "gadget := s0 /c (pp \\c s0)\n"):
        with pytest.raises(QuantifierShapeError, match="gadget"):
            machine_from_lexicon(load_lexicon(entry))


# -- an independent path enumerator used as oracle ----------------------------

def brute_force_runs(machine, scope_seq):
    """Enumerate accepting paths by brute force over move sequences: a path
    is a start state, the quantifier transitions in order with ε edges
    allowed once a transition has fired, ending in the final state."""
    done = []
    eps = sorted(machine.epsilon, key=lambda e: (e[0].value, e[1].value))

    def go(state, i, states, moves):
        if i == len(scope_seq) and state == machine.final:
            done.append(Run(states, moves))
        options = []
        if i < len(scope_seq):
            for word, src, dst in machine.transitions:
                if word == scope_seq[i] and src == state:
                    options.append((dst, i + 1, word))
        if i > 0:
            for src, dst in eps:
                if src == state:
                    options.append((dst, i, EPSILON))
        for dst, j, label in options:
            go(dst, j, states + (dst,), moves + (label,))

    for start in sorted(machine.starts, key=lambda s: s.value):
        go(start, 0, (start,), ())
    return done


@pytest.mark.parametrize("seq", [
    [], ["nobody", "anybody"], ["everybody", "anybody"],
    ["nobody", "everybody", "somebody"], ["somebody", "everybody"],
    ["a man"], ["somebody", "nobody"], ["anybody"],
])
def test_accepting_runs_match_brute_force(machine, seq):
    assert set(accepting_runs(machine, seq)) == set(brute_force_runs(machine, seq))


def test_licensing_run(machine):
    runs = accepting_runs(machine, ["nobody", "anybody"])
    assert runs == [Run((NEU, NEG, NEG, NEU),
                        ("nobody", "anybody", EPSILON))]


def test_unlicensed_no_runs(machine):
    assert accepting_runs(machine, ["everybody", "anybody"]) == []


def test_empty_sequence_run(machine):
    assert Run((NEU,), ()) in accepting_runs(machine, [])


def test_triple_linear_run_exists(machine):
    runs = accepting_runs(machine, ["nobody", "everybody", "somebody"])
    assert Run((NEU, NEG, NEU, POS, POS, NEU),
               ("nobody", EPSILON, "everybody", "somebody", EPSILON)) in runs


def test_runs_are_locally_valid(machine):
    for seq in [["nobody", "anybody"], ["nobody", "everybody", "somebody"],
                ["somebody", "everybody"]]:
        for run in accepting_runs(machine, seq):
            assert run.states[0] in machine.starts
            assert run.states[-1] == machine.final
            for src, move, dst in zip(run.states, run.moves, run.states[1:]):
                if move == EPSILON:
                    assert (src, dst) in machine.epsilon
                else:
                    assert (move, src, dst) in machine.transitions


# -- the evaluation-order constraint ------------------------------------------

def test_inverse_through_negative_state_rejected(machine):
    # the stuck configuration: licensor after licensee in surface order
    reading = Reading((("nobody", 2), ("anybody", 0)))
    [run] = accepting_runs(machine, ["nobody", "anybody"])
    assert run.states == (NEU, NEG, NEG, NEU)
    assert not evaluation_order_ok(machine, reading, run)


def test_inverse_through_positive_state_allowed(machine):
    reading = Reading((("everybody", 2), ("somebody", 0)))
    runs = accepting_runs(machine, ["everybody", "somebody"])
    good = [r for r in runs if evaluation_order_ok(machine, reading, r)]
    assert good
    assert good[0].states[1] == POS  # the window holds a start state


def test_linear_reading_always_ok(machine):
    reading = Reading((("nobody", 0), ("anybody", 2)))
    for run in accepting_runs(machine, ["nobody", "anybody"]):
        assert evaluation_order_ok(machine, reading, run)


# -- the combined prediction --------------------------------------------------

def _orders(readings):
    return {tuple(w for w, _ in r.scope_order) for r in readings}


def test_predict_licensing_only_linear(machine):
    got = predict(machine, [("nobody", 0), ("anybody", 2)])
    assert {r.scope_order for r in got} == {(("nobody", 0), ("anybody", 2))}


def test_predict_ambiguous(machine):
    got = predict(machine, [("somebody", 0), ("everybody", 2)])
    assert _orders(got) == {("somebody", "everybody"),
                            ("everybody", "somebody")}


def test_predict_inverse_only(machine):
    got = predict(machine, [("nobody", 0), ("somebody", 2)])
    assert {r.scope_order for r in got} == {(("somebody", 2), ("nobody", 0))}


def test_predict_triple_includes_linear(machine):
    got = predict(machine, [("nobody", 0), ("everybody", 1), ("somebody", 2)])
    assert (("nobody", 0), ("everybody", 1), ("somebody", 2)) \
        in {r.scope_order for r in got}


@pytest.mark.parametrize("sentence", [
    "Nobody saw anybody", "Nobody introduced everybody to somebody"])
def test_predict_leaves_no_cyclic_garbage(machine, lex, sentence):
    # with the collector off, anything predict left in a reference cycle
    # would still be there for the next collection to find
    occurrences = quantifier_occurrences(tokenize(sentence, lex), machine)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert predict(machine, occurrences)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_quantifier_occurrences(machine, lex):
    tokens = tokenize("Nobody's mother saw anybody's father", lex)
    assert quantifier_occurrences(tokens, machine) == \
        [("nobody", 0), ("anybody", 3)]


def test_epsilon_edges_are_exactly_the_derivable_conversions(machine):
    # each ε edge (X, s0-state) mirrors a derivable sequent s0 |- X, and the
    # machine has an edge for every derivable non-trivial conversion
    from polagram import Sequent, parse_formula, parse_structure, prove
    clause = {POS: "s+", NEU: "s0", NEG: "s-"}
    for src, dst in machine.epsilon:
        assert dst == NEU
        goal = Sequent(parse_structure("s0"), parse_formula(clause[src]))
        assert prove(goal).derivations
    derivable_from_neutral = {
        state for state in (POS, NEG)
        if prove(Sequent(parse_structure("s0"),
                         parse_formula(clause[state]))).derivations}
    assert {(s, NEU) for s in derivable_from_neutral} == set(machine.epsilon)


# -- the prover against the machine on every quantifier shape ----------------

CLAUSE_SIGNS = {"z": "s0", "p": "s+", "n": "s-"}
SHAPES = {f"q{out}{in_}": f"{CLAUSE_SIGNS[out]} /c (np \\c {CLAUSE_SIGNS[in_]})"
          for out in CLAUSE_SIGNS for in_ in CLAUSE_SIGNS}


def test_prover_and_machine_agree_on_every_shape_pair():
    # all nine shapes Out /c (np \c In), in subject and object position,
    # against each other and against a name
    lex = load_lexicon("alice := np\nbob := np\nsaw := (np \\ s0) / np\n"
                       + "".join(f"{w} := {t}\n" for w, t in SHAPES.items()))
    machine = machine_from_lexicon(lex)
    sentences = [f"{a} saw {b}" for a in SHAPES for b in SHAPES] \
        + [f"{a} saw bob" for a in SHAPES] \
        + [f"alice saw {b}" for b in SHAPES]
    assert len(sentences) == 99
    for sentence in sentences:
        result = parse_sentence(sentence, lex)
        assert judge(result, machine).reasons == (), sentence


# "anybody" has two scope-taking types, so two machine transitions: the
# negative-polarity item, and a free-choice reading over a neutral clause
TWO_TYPE_LEXICON = """\
alice := np
saw := (np \\ s0) / np
nobody := s0 /c (np \\c s-)
anybody := s- /c (np \\c s-)
anybody := s0 /c (np \\c s0)
"""


def test_the_machine_follows_every_type_of_a_word():
    lex = load_lexicon(TWO_TYPE_LEXICON)
    machine = machine_from_lexicon(lex)
    assert [(src, dst) for word, src, dst in machine.transitions
            if word == "anybody"] == [(NEG, NEG), (NEU, NEU)]
    for seq in (["anybody"], ["nobody", "anybody"], ["anybody", "nobody"],
                ["anybody", "anybody"]):
        assert set(accepting_runs(machine, seq)) \
            == set(brute_force_runs(machine, seq)), seq
    names = ("alice", "nobody", "anybody")
    for sentence in [f"{a} saw {b}" for a in names for b in names]:
        result = parse_sentence(sentence, lex)
        assert judge(result, machine, CorpusLine(sentence, "ok")).reasons \
            == (), sentence


POSSESSORS = ("nobody", "anybody", "somebody", "everybody", "a man",
              "alice", "bob")

# A sha256 over the possessive frame at the default budget: per sentence one
# line with its verdict and timeout flag, then the ``_digest_line`` of each
# derivation, so it also pins the rule-order variant returned for each
# reading (the one its trace's first witnesses spell out; under a tree's
# second goal type, some witnesses come from the pairs its first goal
# solved).
POSSESSIVE_FRAME_SHA256 = \
    "21273f43d09355f6ec0cefa16a8fd141dcad4194e82511fcec0fb44ed802b62e"


def test_prover_and_machine_agree_on_the_possessive_frame(parsed, machine):
    # "X's mother saw Y's father" over all 7 x 7 pairs of quantifiers and
    # names, at the default budget; the digest pins every derivation
    sentences = [f"{a}'s mother saw {b}'s father"
                 for a in POSSESSORS for b in POSSESSORS]
    grammatical = 0
    digest = hashlib.sha256()
    for sentence in sentences:
        result = parsed(sentence)
        digest.update(f"{result.verdict} {result.timed_out}\n"
                      .encode("utf-8"))
        for d in result.derivations:
            digest.update(_digest_line(d))
        assert judge(result, machine).reasons == (), sentence
        grammatical += result.verdict == GRAMMATICAL
    assert (len(sentences), grammatical) == (49, 37)
    assert digest.hexdigest() == POSSESSIVE_FRAME_SHA256


DATA = Path(__file__).parent / "data"


def _rows(name):
    return parse_corpus((DATA / name).read_text(encoding="utf-8"))


# The same digest over every row of the 7- to 9-token corpus file, in file
# order: the searches that a change inside the prover moves first
SEVEN_TOKENS_SHA256 = \
    "8ed8560fc438b21a2950d20b567954b9d120e9cfb12d89ec8467026f3c90df6e"

# And over the 25 rows of the ditransitive frame that end in "to
# everybody", in file order, where the order of the moves at one site
# decides which rule-order variant some readings get
TO_EVERYBODY_SHA256 = \
    "14b34690c04fe58ee919e3d59ce6bbcac85dc26990a17156ac8bb3cf6a4a8f7d"

# And over the three 9- to 11-token rows, in file order
LONG_SENTENCES_SHA256 = \
    "4fb3e1c67d6bbdaf02279196b97bf8f54ae4ef4ec5a06a42eac22a84bf8a6861"


def _rows_digest(parsed, machine, lines):
    """The possessive frame's kind of sha256 over the corpus rows
    ``lines``, in order, checking on the way that each row passes
    ``judge``: judged as the file says, with the machine's readings, the
    file's reading count and valid derivations."""
    digest = hashlib.sha256()
    for line in lines:
        result = parsed(line.sentence)
        digest.update(f"{result.verdict} {result.timed_out}\n"
                      .encode("utf-8"))
        for d in result.derivations:
            digest.update(_digest_line(d))
        assert judge(result, machine, line).reasons == (), line.sentence
    return digest.hexdigest()


@pytest.mark.parametrize("lines,count,expected_digest", [
    pytest.param(_rows("seven_tokens.tsv"), 8, SEVEN_TOKENS_SHA256,
                 id="seven_tokens"),
    pytest.param([line for line in _rows("ditransitive.tsv")
                  if line.sentence.endswith(" to everybody")],
                 25, TO_EVERYBODY_SHA256, id="ditransitive_to_everybody"),
    pytest.param(_rows("long_sentences.tsv"), 3, LONG_SENTENCES_SHA256,
                 id="long_sentences"),
])
def test_the_seven_token_derivations_are_pinned(parsed, machine, lines,
                                                count, expected_digest):
    assert len(lines) == count
    assert _rows_digest(parsed, machine, lines) == expected_digest


def test_an_uncapped_search_ends_and_agrees_with_the_machine(lex, machine):
    # no cap bounds the search: it must explore the whole finite graph of
    # sequents it reaches and end on its own
    sentence = "Nobody saw anybody's mother"
    result = parse_sentence(sentence, lex)
    assert judge(result, machine, CorpusLine(sentence, "ok")).reasons == ()
