import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polagram.prover
from polagram import (
    Atom, Bin, BoxDown, Derivation, Dia, FLeaf, GOAL_TYPES, Over, Product,
    RuleName, SearchBudget, Sequent, Un, Under, NP, S0, SPLUS, SMINUS, CMODE,
    DEFAULT, UMODE, VALUE,
    derivation_from_dict, derivation_to_dict, extract_reading,
    bracketings, load_lexicon, parse_formula, parse_sentence,
    parse_structure, prove, tokenize, validate_derivation,
)
from polagram.cli import BUILTIN_CORPUS
from polagram.prover import (
    AXIOM, KPRIME, LEFT_B, LEFT_F, LEX, RIGHT_B, RIGHT_F, ROOT_B, ROOT_F,
    T_RULE, UNQUOTE_ANTE, UNQUOTE_SUCC, MoveTable, _antecedent_moves,
    _apply_step, _expected_premises, _kprime, _left_bwd, _left_fwd, _plain,
    _quoting, _right_bwd, _right_fwd, _root_bwd, _root_fwd, _search,
    _skeleton_refutes, _unquote_ante, replace, scope_firing,
    structure_from_dict, structure_to_dict, subtree,
)

CLAUSE_TYPES = {"s0": S0, "s+": SPLUS, "s-": SMINUS}


def seq(antecedent, succedent, lexicon=None):
    return Sequent(parse_structure(antecedent, lexicon),
                   parse_formula(succedent))


def _map_leaves(st, leaf):
    """``st`` rebuilt with ``leaf`` applied to each formula leaf."""
    if isinstance(st, FLeaf):
        return leaf(st)
    if isinstance(st, Bin):
        return Bin(st.mode, _map_leaves(st.left, leaf),
                   _map_leaves(st.right, leaf))
    if isinstance(st, Un):
        return Un(st.mode, _map_leaves(st.body, leaf))
    return st


def _unlabelled(st):
    """``st`` with every word and position label erased."""
    return _map_leaves(st, lambda leaf: FLeaf(leaf.formula))


# -- identity and the transitive clause --------------------------------------

def test_axiom_identity():
    result = prove(Sequent(FLeaf(NP), NP))
    assert len(result.derivations) == 1
    assert result.derivations[0].rule.tag == "Axiom"


def test_transitive_clause(lex):
    # Alice saw Bob, assembled by the slash eliminations
    result = prove(seq("alice * (saw * bob)", "s0", lex))
    assert result.derivations
    d = result.derivations[0]
    assert validate_derivation(d)
    tags = {node.rule.tag for node in d.walk()}
    assert tags == {"OverL", "UnderL", "Axiom", "Lex"}


def test_wrong_bracketing_fails(lex):
    result = prove(seq("(alice * saw) * bob", "s0", lex))
    assert not result.derivations


# -- the silent polarity conversions -----------------------------------------

@pytest.mark.parametrize("target", ["s+", "s-"])
def test_neutral_converts_silently(target):
    assert prove(seq("s0", target)).derivations


def test_value_of_boxed_diamond():
    assert prove(seq("np", "[p]<p>np")).derivations


@pytest.mark.parametrize("src,dst", [
    ("s+", "s0"), ("s+", "s-"), ("s-", "s0"), ("s-", "s+"),
])
def test_no_other_clause_conversions(src, dst):
    result = prove(seq(src, dst))
    assert not result.derivations
    assert not result.timed_out  # refuted by a search that ended


@pytest.mark.parametrize("t", ["s0", "s+", "s-"])
def test_clause_identities(t):
    assert prove(seq(t, t)).derivations


# -- quantifier scope ---------------------------------------------------------

def test_polarity_licensing_derivable(lex):
    result = prove(seq("nobody * (saw * anybody)", "s0", lex))
    assert result.derivations
    for d in result.derivations:
        assert validate_derivation(d)


def test_in_situ_quantification_derivable(lex):
    result = prove(seq("alice * (saw * (a_man * 's_mother))", "s0", lex))
    assert result.derivations
    rules = {str(node.rule) for node in result.derivations[0].walk()}
    # the derivation leans on the structural apparatus, not just the slashes
    assert {"Root→", "Root←", "T", "K′", "UnquoteSucc"} & rules


def test_reversed_licensing_not_derivable(lex):
    for goal in ["s0", "s+"]:
        assert not prove(seq("anybody * (saw * nobody)", goal, lex)).derivations


def test_stuck_negative_context_not_derivable(lex):
    goal = seq("np *c ((1 * <>anybody) * <>saw)", "s-", lex)
    assert not prove(goal).derivations


def test_stuck_negative_context_robust_to_doubled_budget(lex):
    # twice the default cap on readings, which caps nothing the search
    # explores: the refutation ends on its own
    goal = seq("np *c ((1 * <>anybody) * <>saw)", "s-", lex)
    result = prove(goal, SearchBudget(32))
    assert not result.derivations and not result.timed_out


# -- the derivation checker ---------------------------------------------------

def test_prover_output_validates(lex):
    for text, target in [("nobody * (saw * anybody)", "s0"),
                         ("somebody * (saw * everybody)", "s+"),
                         ("s0", "s-")]:
        for d in prove(seq(text, target, lex)).derivations:
            assert validate_derivation(d)


def test_bogus_axiom_rejected():
    bad = Derivation(RuleName("Axiom"), Sequent(FLeaf(NP), parse_formula("s")))
    assert not validate_derivation(bad)


def test_validator_checks_word_labels(lex):
    # relabel anybody as somebody in the first premise: the rule demands a
    # premise with the conclusion's words, so the derivation is invalid
    good = prove(seq("nobody * (saw * anybody)", "s0", lex)).derivations[0]
    first = good.premises[0]
    somebody = _map_leaves(
        first.conclusion.antecedent,
        lambda leaf: FLeaf(leaf.formula, "somebody", leaf.pos)
        if leaf.word == "anybody" else leaf)
    assert "somebody" in str(somebody)
    relabelled = Derivation(first.rule,
                            Sequent(somebody, first.conclusion.succedent),
                            first.premises, first.site)
    bad = Derivation(good.rule, good.conclusion,
                     (relabelled,) + good.premises[1:], good.site)
    assert validate_derivation(good)
    assert not validate_derivation(bad)


def test_wrong_site_rejected(lex):
    good = prove(seq("alice * (saw * bob)", "s0", lex)).derivations[0]
    bad = Derivation(good.rule, good.conclusion, good.premises,
                     site=good.site + (0,))
    assert not validate_derivation(bad)


def _node(rule, mode, ant, succ, premises, site=(), lexicon=None):
    # each node is parsed on its own, so its leaf positions, and its words
    # where no lexicon is given, do not follow from its neighbours'; with
    # the labels erased the transcription is consistent
    return Derivation(RuleName(rule, mode),
                      Sequent(_unlabelled(parse_structure(ant, lexicon)),
                              parse_formula(succ)),
                      tuple(premises), site)


def test_hand_encoded_licensing_derivation(lex):
    """A worked proof of the licensing sentence, transcribed node by node."""
    def ax(ant, succ):
        return _node("Axiom", "", ant, succ, [])

    inner_clause = _node(
        "OverL", "", "np * (saw * np)", "s0",
        [_node("UnderL", "", "np * (np \\ s0)", "s0",
               [ax("s0", "s0"), ax("np", "np")]),
         ax("np", "np")],
        site=(1,), lexicon=lex)
    merged = _node(
        "UnquoteSucc", "", "<>(np * (saw * np))", "s0",
        [_node("DiaR", "", "<>(np * (saw * np))", "<>s0", [inner_clause],
               lexicon=lex)],
        lexicon=lex)
    rebuilt = _node(
        "Right←", "", "np *c (1 * <>np * <>saw)", "s0",
        [_node("Right←", "", "(<>saw * np) *c (1 * <>np)", "s0",
               [_node("Root←", "", "(<>np * (<>saw * np)) *c 1", "s0",
                      [_node("T", "", "<>np * (<>saw * np)", "s0",
                             [_node("K′", "", "<>np * (<>saw * <>np)", "s0",
                                    [_node("K′", "", "<>np * <>(saw * np)",
                                           "s0", [merged], lexicon=lex)],
                                    site=(1,), lexicon=lex)],
                             site=(1, 1), lexicon=lex)],
                      lexicon=lex)],
               lexicon=lex)],
        lexicon=lex)
    negative_inner = _node(
        "BoxDownR", "p", "np *c (1 * <>np * <>saw)", "s-",
        [_node("DiaR", "p", "<p>(np *c (1 * <>np * <>saw))", "<p>s0",
               [rebuilt], lexicon=lex)],
        lexicon=lex)
    licensee = _node(
        "OverL", "c", "anybody *c (1 * <>np * <>saw)", "s-",
        [ax("s-", "s-"),
         _node("UnderR", "c", "1 * <>np * <>saw", "np \\c s-",
               [negative_inner], lexicon=lex)],
        lexicon=lex)
    context = _node(
        "T", "", "np *c (saw * anybody * 1)", "s-",
        [_node("T", "", "<>np *c (saw * anybody * 1)", "s-",
               [_node("Left←", "", "<>np *c (<>saw * anybody * 1)", "s-",
                      [_node("Right→", "", "(<>np * (<>saw * anybody)) *c 1",
                             "s-",
                             [_node("Right→", "",
                                    "(<>saw * anybody) *c (1 * <>np)", "s-",
                                    [licensee], lexicon=lex)],
                             lexicon=lex)],
                      lexicon=lex)],
               site=(1, 0, 0), lexicon=lex)],
        site=(0,), lexicon=lex)
    derivation = _node(
        "Root→", "", "nobody * (saw * anybody)", "s0",
        [_node("Left→", "", "(nobody * (saw * anybody)) *c 1", "s0",
               [_node("OverL", "c", "nobody *c (saw * anybody * 1)", "s0",
                      [ax("s0", "s0"),
                       _node("UnderR", "c", "saw * anybody * 1", "np \\c s-",
                             [context], lexicon=lex)],
                      lexicon=lex)],
               lexicon=lex)],
        lexicon=lex)
    assert validate_derivation(derivation)


# -- move generation ----------------------------------------------------------

STRUCTURAL_RULES = {ROOT_F, ROOT_B, LEFT_F, LEFT_B, RIGHT_F, RIGHT_B, T_RULE,
                    KPRIME, UNQUOTE_ANTE, UNQUOTE_SUCC}


def test_enumerate_includes_root_forward(lex):
    # Root introduces its unit at the root of an antecedent whose leaves
    # hold a continuation functor, and not where nothing could consume it
    goal = seq("nobody * (saw * anybody)", "s0", lex)
    roots = [(step, premises)
             for step, premises, _trace in MoveTable().moves_of(goal)
             if step[0] == ROOT_F]
    assert roots == [((ROOT_F, (), None),
                      (seq("(nobody * (saw * anybody)) *c 1", "s0", lex),))]
    plain = seq("alice * (saw * bob)", "s0", lex)
    assert all(step[0] != ROOT_F
               for step, _p, _trace in MoveTable().moves_of(plain))


def test_enumerate_right_forward(lex):
    goal = seq("(<>np * everybody) *c np", "s0", lex)
    results = [premises
               for step, premises, _trace in MoveTable().moves_of(goal)
               if step == (RIGHT_F, (), None)]
    # compared as printed: the premise keeps the goal's leaf positions,
    # which a fresh parse of its text would number afresh
    assert [[str(p) for p in premises] for premises in results] \
        == [["everybody *c (np * <>np) |- s0"]]


@pytest.mark.parametrize("antecedent,descents", [
    ("(<>np * saw) *c np", set()),
    ("(np * saw) *c nobody", set()),
    ("(<>np * everybody) *c np", {RIGHT_F}),
    ("(nobody * saw) *c np", {LEFT_F}),
    ("(nobody * <>everybody) *c np", {LEFT_F}),
    ("(<>(nobody * saw) * everybody) *c np", {RIGHT_F}),
    ("(<>np * <>(saw * everybody)) *c np", set()),
    ("nobody * (saw * <>anybody)", {ROOT_F}),
    ("<>(nobody * (saw * anybody))", set()),
])
def test_the_focus_descends_only_toward_a_scope_taker(lex, antecedent,
                                                      descents):
    # Left→ moves the focus into the left half of the surface pair under
    # the c-mode node, Right→ into its right half; neither is offered
    # into a half with no c-mode formula outside every unary node, whatever
    # the context holds.  Root→ makes the whole antecedent the focus, and
    # is offered only where it holds such a formula
    goal = seq(antecedent, "s0", lex)
    offered = {step[0] for step, _premises, _trace
               in MoveTable().moves_of(goal)
               if step[1] == ()}
    assert offered & {ROOT_F, LEFT_F, RIGHT_F} == descents


def test_enumerate_deterministic_order(lex):
    goal = seq("nobody * (saw * anybody)", "s0", lex)
    again = seq("nobody * (saw * anybody)", "s0", lex)

    def listing(at):
        return [[str(rule), site, quote] + [p.key for p in premises]
                for (rule, site, quote), premises, _trace
                in MoveTable().moves_of(at)]

    assert listing(goal) == listing(goal) == listing(again)


def _subtrees(st):
    yield st
    if isinstance(st, Bin):
        yield from _subtrees(st.left)
        yield from _subtrees(st.right)
    elif isinstance(st, Un):
        yield from _subtrees(st.body)


def test_bidirectional_postulates_compose_to_identity(lex):
    inverses = [(_root_fwd, _root_bwd), (_root_bwd, _root_fwd),
                (_left_fwd, _left_bwd), (_left_bwd, _left_fwd),
                (_right_fwd, _right_bwd), (_right_bwd, _right_fwd)]
    fired = set()
    for text in ["nobody * (saw * anybody)",
                 "np *c ((1 * <>anybody) * <>saw)",
                 "(<>np * saw) *c (np * 1)",
                 "(<>np * saw) *c 1"]:
        for node in _subtrees(parse_structure(text, lex)):
            for rewrite, inverse in inverses:
                new = rewrite(node)
                if new is not None:
                    assert inverse(new) == node, (rewrite.__name__, text)
                    fired.add(rewrite)
    assert fired == {rewrite for rewrite, _inverse in inverses}


# -- search behaviour ---------------------------------------------------------

def test_deterministic_output(lex):
    goal = seq("somebody * (saw * everybody)", "s0", lex)
    a = prove(goal)
    b = prove(goal)
    assert [d.render() for d in a.derivations] \
        == [d.render() for d in b.derivations]


def _step_cost(step):
    """The structural rules a move applies, its fused T among them."""
    rule, _site, quote = step
    return (rule in STRUCTURAL_RULES) + (quote is not None)


class PlainSearch:
    """The reference search: a plain depth-first search over
    ``MoveTable().moves_of`` under a per-branch cap on structural steps,
    spent move by move (``_step_cost``), that repeats no sequent on a
    branch.  It finds one
    derivation per scope trace, and is exponentially slower than ``prove``;
    kept as an independent check of the three-phase search.  A move the
    branch cannot afford marks the search cut (``exhausted``)."""

    def __init__(self):
        self.exhausted = False
        self.path = set()

    def search(self, seq, s_rem):
        """A derivation of ``seq`` for each scope trace found within
        ``s_rem``, keyed by the trace."""
        path = self.path
        if seq.key in path:
            return {}
        every = MoveTable().moves_of(seq)
        moves = [m for m in every if _step_cost(m[0]) <= s_rem]
        self.exhausted = self.exhausted or len(moves) < len(every)
        found = {}
        path.add(seq.key)
        for step, premises, own in moves:
            s2 = s_rem - _step_cost(step)
            # a fused T passes through the sequent it quotes, which counts
            # toward the branch's no-repeat check too
            mids = set()
            quote = step[2]
            if quote is not None:
                ant = seq.antecedent
                quoted = replace(ant, quote, Un(VALUE, subtree(ant, quote)))
                mids.add(Sequent(quoted, seq.succedent).key)
            if mids & path:
                continue
            path |= mids
            subs = {(): ()}  # the premises' trace so far -> derivations
            for premise in premises:
                if subs:
                    theirs = self.search(premise, s2)
                    subs = {trace + t: ds + (d,)
                            for trace, ds in subs.items()
                            for t, d in theirs.items()}
            for trace, ds in subs.items():
                found.setdefault(own + trace, _apply_step(seq, step, ds))
            path -= mids
        path.discard(seq.key)
        return found


def test_prove_finds_every_reading_the_plain_search_finds(lex):
    # every reading the capped oracle finds, prove finds; where the oracle
    # was not cut, prove finds no other.  The caps are the oracle's alone
    cases = [
        ("np", "np", 64),
        ("s0", "s+", 64),
        ("s0", "s-", 64),
        ("s+", "s0", 64),
        ("alice * (saw * bob)", "s0", 64),
        ("alice * (saw * everybody)", "s0", 24),
        ("nobody * (saw * anybody)", "s0", 24),
        ("somebody * (saw * everybody)", "s+", 24),
        ("np *c ((1 * <>anybody) * <>saw)", "s-", 18),
    ]
    uncut = 0
    for text, target, cap in cases:
        goal = seq(text, target, lex)
        got = {extract_reading(d) for d in prove(goal).derivations}
        oracle = PlainSearch()
        found = {extract_reading(d)
                 for d in oracle.search(goal, cap).values()}
        assert found <= got, text
        if not oracle.exhausted:
            assert found == got, text
            uncut += 1
    assert uncut == 9


def test_no_branch_repeats_a_sequent(lex):
    # no (sequent, trace) pair recurs on a branch of an extracted
    # derivation, as each witness's premises were derived before it; on
    # this goal no sequent recurs at all, not even with its word labels
    # erased
    result = prove(seq("nobody * (saw * anybody)", "s0", lex))

    def check(d, seen):
        key = Sequent(_unlabelled(d.conclusion.antecedent),
                      d.conclusion.succedent).key
        assert key not in seen
        for p in d.premises:
            check(p, seen | {key})

    for d in result.derivations:
        check(d, frozenset())


def test_max_derivations_cap(lex):
    # the cap counts readings, one derivation each: this goal has two
    goal = seq("somebody * (saw * everybody)", "s+", lex)
    assert len(prove(goal, SearchBudget(max_derivations=1)).derivations) == 1
    assert len(prove(goal).derivations) == 2


def test_one_derivation_per_reading(searched):
    # no two derivations of one prove call share a reading, over the grid
    # and the possessive frame, every (tree, goal) search of each sentence
    calls = 0
    for sentence in GRID + POSSESSIVE_FRAME:
        _parse, results = searched(sentence)
        for result in results:
            readings = [extract_reading(d) for d in result.derivations]
            assert len(set(readings)) == len(readings), sentence
        calls += len(results)
    assert calls > len(GRID + POSSESSIVE_FRAME)


# the one bracketing of "Nobody's mother saw anybody's father" that derives
# a clause; the skeleton check refutes the other thirteen before any search
POSSESSIVE = "(nobody * 's_mother) * (saw * (anybody * 's_father))"


def test_timeout_reports_exhaustion(lex):
    goal = seq(POSSESSIVE, "s0", lex)
    result = prove(goal, deadline=0.0)
    assert result.timed_out and result.budget_exhausted
    assert not result.derivations


def test_a_short_search_reads_its_deadline(lex):
    # the clock is read before every label, so a search that settles only a
    # few labels stops at once too
    result = prove(seq("alice * (saw * bob)", "s0", lex), deadline=0.0)
    assert result.timed_out and not result.derivations


def test_a_nan_deadline_is_refused_before_any_search(lex, monkeypatch):
    # no clock reading passes a NaN deadline, so such a search would never
    # time out; prove refuses it before the skeleton check
    checked = []
    monkeypatch.setattr(polagram.prover, "_skeleton_refutes", checked.append)
    for antecedent in ("(alice * saw) * bob", "nobody * (saw * anybody)"):
        with pytest.raises(ValueError):
            prove(seq(antecedent, "s0", lex), deadline=float("nan"))
    assert checked == []


# -- phase 2 over a hand-filled move table ------------------------------------

class _HandTable(MoveTable):
    """A move table whose moves are listed by hand, per node key."""

    def __init__(self):
        super().__init__()
        self.listed = {}

    def moves_of(self, seq):
        return self.listed[seq.key]


def _hand_search(moves):
    """``_search`` from "goal" over a move table filled by hand with
    ``moves``, each (node, premise nodes, trace) and one step long; the
    nodes of each derivation found, in preorder."""
    table = _HandTable()
    node = {name: Sequent(FLeaf(Atom(name)), Atom(name))
            for at, premises, *_rest in moves for name in (at,) + premises}
    for at, premises, trace in moves:
        step = (RuleName("Step" if premises else "Axiom"), (), None)
        table.listed.setdefault(node[at].key, []).append(
            (step, tuple(node[p] for p in premises), trace))
    result = _search(node["goal"], SearchBudget(), None, table)
    assert not result.timed_out
    return [[n.conclusion.succedent.name for n in d.walk()]
            for d in result.derivations]


@pytest.mark.parametrize("goal_first", [True, False])
def test_phase_two_joins_every_trace_the_other_premise_settled(goal_first):
    # goal -> (A, B); A -> V fires ("a", 0), V -> W and W -> X; B -> Y1
    # fires ("b", 1) and B -> Y2 fires ("c", 2).  A's one pair takes two
    # steps more than B's, so it is derived after both of B's are read:
    # whichever slot A has, its own join must take each of them
    pair = ("A", "B") if goal_first else ("B", "A")
    found = _hand_search([("goal", pair, ()),
                          ("A", ("V",), (("a", 0),)),
                          ("V", ("W",), ()),
                          ("W", ("X",), ()),
                          ("B", ("Y1",), (("b", 1),)),
                          ("B", ("Y2",), (("c", 2),)),
                          ("X", (), ()), ("Y1", (), ()), ("Y2", (), ())])
    a = ["A", "V", "W", "X"]
    assert found == [["goal"] + (a + b if goal_first else b + a)
                     for b in (["B", "Y1"], ["B", "Y2"])]


def test_a_reading_past_a_cheaper_one_is_kept():
    # goal -> B, and goal -> A firing ("x", 0); A -> B; B -> C.  The
    # reading through A needs a longer derivation than the other, and is
    # found all the same: a trace the goal already has does not stop a new
    # one
    found = _hand_search([("goal", ("B",), ()),
                          ("goal", ("A",), (("x", 0),)),
                          ("A", ("B",), ()),
                          ("B", ("C",), ()),
                          ("C", (), ())])
    assert found == [["goal", "B", "C"], ["goal", "A", "B", "C"]]


def test_extraction_ends_on_a_cycle_listed_first():
    # goal -> A and A -> goal, a cycle that fires nothing, listed before
    # A -> X, which fires ("x", 0).  A pair's witness names only pairs
    # derived before it, so extraction takes A -> X at A and does not go
    # round the cycle
    found = _hand_search([("goal", ("A",), ()),
                          ("A", ("goal",), ()),
                          ("A", ("X",), (("x", 0),)),
                          ("X", (), ())])
    assert found == [["goal", "A", "X"]]


# -- the collector and the shared move table ---------------------------------


@pytest.mark.parametrize("antecedent,budget,deadline,outcome", [
    ("nobody * (saw * anybody)", None, None, "derived"),
    ("anybody * (saw * nobody)", None, None, "refuted"),
    (POSSESSIVE, None, 0.0, "timed out"),
])
def test_prove_leaves_no_cyclic_garbage(lex, antecedent, budget, deadline,
                                        outcome):
    # with the collector off, anything prove left in a reference cycle
    # would still be there for the next collection to find
    goal = seq(antecedent, "s0", lex)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = prove(goal, budget, deadline=deadline)
        assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    got = ("timed out" if result.timed_out
           else "derived" if result.derivations else "refuted")
    assert got == outcome


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("deadline", [None, 0.0])
def test_prove_restores_the_collector_state(lex, enabled, deadline):
    goal = seq(POSSESSIVE if deadline is not None
               else "nobody * (saw * anybody)", "s0", lex)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        prove(goal, deadline=deadline)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


GRID_WORDS = ("alice", "bob", "a man", "nobody", "anybody", "somebody",
              "everybody")
GRID = [f"{a} saw {b}" for a in GRID_WORDS for b in GRID_WORDS]
POSSESSIVE_FRAME = [f"{a}'s mother saw {b}'s father"
                    for a in GRID_WORDS for b in GRID_WORDS]
SHARING_SENTENCES = GRID + ["Alice saw a man's mother"]


def _proofs(result):
    return [derivation_to_dict(d) for d in result.derivations]


class _RecordingTable(MoveTable):
    """The move table, recording each node a search expanded with the moves
    it assembled for it, and how many times it was asked for moves."""

    def __init__(self):
        super().__init__()
        self.expanded = {}
        self.calls = 0

    def moves_of(self, seq):
        moves = super().moves_of(seq)
        self.expanded[seq.key] = seq, moves
        self.calls += 1
        return moves


@pytest.mark.parametrize("sentence", SHARING_SENTENCES)
def test_a_shared_move_table_changes_nothing(lex, sentence):
    checked = 0
    for tree in bracketings(tokenize(sentence, lex), lex):
        goals = [Sequent(tree, goal_type) for goal_type in (S0, SPLUS)]
        fresh = {g.key: _proofs(prove(g)) for g in goals}
        for order in (goals, goals[::-1]):
            table = _RecordingTable()
            for goal in order:
                assert _proofs(prove(goal, table=table)) == fresh[goal.key]
            # a fused T quotes a site at or below its rule's; each move
            # carries the scope firing of its rule, and a move that fires
            # fuses no T, so the rule reads its node's antecedent; an
            # antecedent move holds the very step tuple of its antecedent's
            # list, whatever the succedent
            checked += len(table.expanded)
            for key, (node, moves) in table.expanded.items():
                assert node.key == key
                for (rule, site, quote), premises, trace in moves:
                    assert quote is None or quote[:len(site)] == site
                    firing = scope_firing(rule, node.antecedent, site)
                    assert trace == (() if firing is None else (firing,))
                    assert firing is None or quote is None
                if moves and moves[0][0][0] in (AXIOM, LEX):
                    continue  # the axiom alone; no half was read
                half = [step for step, *_rest
                        in table.halves[node.antecedent.key]]
                ids = {id(step) for step in half}
                threaded = [step for step, *_rest in moves
                            if id(step) in ids]
                assert len(threaded) == len(half)
                assert all(t is h for t, h in zip(threaded, half))
    assert checked


def _readings(result):
    return [extract_reading(d).scope_order for d in result.derivations]


def test_a_later_goal_on_a_solved_table_keeps_its_readings(lex, searched):
    # over the possessive frame, every tree with both goal orders on one
    # table: parse_sentence's own calls (GOAL_TYPES in order) and the
    # reverse order.  The first goal gets exactly a fresh search's
    # derivations; a later goal seeds the pairs the first solved, so it may
    # return another rule-order variant of a reading, but the same readings
    # in the same order
    for sentence in POSSESSIVE_FRAME:
        trees = bracketings(tokenize(sentence, lex), lex)
        _parse, shared = searched(sentence)
        assert len(shared) == len(GOAL_TYPES) * len(trees)
        for i, tree in enumerate(trees):
            goals = [Sequent(tree, goal_type) for goal_type in GOAL_TYPES]
            fresh = [prove(goal) for goal in goals]
            table = MoveTable()
            reverse = [prove(goal, table=table) for goal in goals[::-1]]
            for first, results in ((0, shared[2 * i:2 * i + 2]),
                                   (1, reverse[::-1])):
                assert _proofs(results[first]) == _proofs(fresh[first])
                later = results[1 - first]
                assert all(validate_derivation(d) for d in later.derivations)
                assert _readings(later) == _readings(fresh[1 - first]), \
                    (sentence, str(goals[1 - first]))


class _Clock:
    """A stand-in for ``time.monotonic`` that ticks once per read, so that
    a deadline of ``n`` cuts a search at its ``n``-th clock read."""

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return float(self.reads)


def test_a_cut_search_empties_the_solved_map(lex):
    # a search cut in either phase empties the table's solved map, the
    # pairs an earlier goal solved included, so the next search on that
    # table is exactly a fresh search: for the first goal of the
    # possessive tree, and for its second goal after the first
    tree = parse_structure(POSSESSIVE, lex)
    first, second = (Sequent(tree, goal_type) for goal_type in GOAL_TYPES)
    fresh = {goal.key: _proofs(prove(goal)) for goal in (first, second)}
    clock = _Clock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polagram.prover, "time", clock)
        for goal, before_it in ((first, ()), (second, (first,))):
            # the clock reads of an uncut search, the first setting the
            # deadline: a deadline of the last count cuts the last check,
            # a pair phase 2 reads
            twin = MoveTable()
            for earlier in before_it:
                prove(earlier, table=twin)
            clock.reads = 0
            assert not prove(goal, deadline=1e12, table=twin).timed_out
            checks = clock.reads - 1
            for cut in (1, checks // 3, 2 * checks // 3, checks):
                table = MoveTable()
                for earlier in before_it:
                    assert _proofs(prove(earlier, table=table)) \
                        == fresh[earlier.key]
                assert table.solved or not before_it
                clock.reads = 0
                result = prove(goal, deadline=float(cut), table=table)
                assert result.timed_out and not result.derivations
                assert table.solved == {}, (str(goal), cut)
                assert _proofs(prove(goal, table=table)) == fresh[goal.key]


def test_extraction_reads_no_clock(lex):
    # the clock is read in phases 1 and 2 only, so an uncut search reads it
    # as often whatever number of derivations it extracts
    goal = seq("somebody * (saw * everybody)", "s+", lex)
    reads = []
    clock = _Clock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polagram.prover, "time", clock)
        for cap in (1, 16):
            clock.reads = 0
            result = prove(goal, SearchBudget(cap), deadline=1e12)
            assert len(result.derivations) == min(cap, 2)
            reads.append(clock.reads)
    assert reads[0] == reads[1]


def test_a_later_goal_extracts_through_nodes_it_did_not_reach(lex):
    # "Nobody saw anybody": the s+ search after the s0 search on one table
    # seeds solved nodes without expanding them, so its derivation runs
    # through nodes it never reached, which only the table holds
    tree = parse_structure("nobody * (saw * anybody)", lex)
    first, later = (Sequent(tree, goal_type) for goal_type in (S0, SPLUS))
    table = _RecordingTable()
    prove(first, table=table)
    solved_before = set(table.solved)
    table.expanded = {}
    result = prove(later, table=table)
    reached = {later.key} | set(table.expanded)
    for _node, moves in table.expanded.values():
        reached.update(premise.key for _steps, premises, _trace in moves
                       for premise in premises)
    unreached = {node.conclusion.key for d in result.derivations
                 for node in d.walk()} & (solved_before - reached)
    assert unreached
    assert result.derivations
    assert all(validate_derivation(d) for d in result.derivations)
    assert _readings(result) == _readings(prove(later))


POSSESSIVES = ["Nobody's mother saw anybody's father",
               "Anybody's mother saw nobody's father"]
SEVEN_TOKEN_ROWS = [
    line.split("\t")[0] for line in
    (Path(__file__).parent / "data" / "seven_tokens.tsv").read_text(
        encoding="utf-8").splitlines()
    if line and not line.startswith("#")]
# the sentences whose trees the move walk and the shared skeleton
# reductions are checked on
WALK_SLICE = (GRID + POSSESSIVES + SEVEN_TOKEN_ROWS
              + [line.sentence for line in BUILTIN_CORPUS])


# -- the reference move generator --------------------------------------------

# An antecedent's moves generated the slow way: list the sites, then ask
# every site for every rule.  ``prover._walk`` must match it move for move.

def _open_sites(st, prefix=()):
    """Sites ordered leftmost-innermost (children before parents), stopping
    at unary wrappers: a quoted (or otherwise boxed) subtree is opaque until
    the wrapper is consumed, so moves strictly inside it commute to after
    its removal."""
    out = []
    if isinstance(st, Bin):
        out.extend(_open_sites(st.left, prefix + (0,)))
        out.extend(_open_sites(st.right, prefix + (1,)))
    out.append((prefix, st))
    return out


def _spine_sites(st, prefix=()):
    """The c-mode sites among ``_open_sites``, in its order.  While a
    context is live no other site offers a move, and only a subtree with a
    c-mode node holds one."""
    out = []
    if isinstance(st, Bin) and st.has_cmode_node:
        out.extend(_spine_sites(st.left, prefix + (0,)))
        out.extend(_spine_sites(st.right, prefix + (1,)))
        if st.mode == CMODE:
            out.append((prefix, st))
    return out


def _left_moves_at(out, ant, site, node):
    """Add the left moves at the subtree ``node`` of ``ant`` at ``site``."""
    if isinstance(node, Bin):
        left, right = node.left, node.right
        if (isinstance(left, FLeaf) and isinstance(left.formula, Over)
                and left.formula.mode == node.mode):
            f = left.formula
            rule = RuleName("OverL", node.mode)
            firing = scope_firing(rule, ant, site)
            out.append(((rule, site, None),
                        replace(ant, site, FLeaf(f.result)),
                        Sequent(right, f.argument),
                        () if firing is None else (firing,)))
        if (isinstance(right, FLeaf) and isinstance(right.formula, Under)
                and right.formula.mode == node.mode):
            f = right.formula
            out.append(((RuleName("UnderL", node.mode), site, None),
                        replace(ant, site, FLeaf(f.result)),
                        Sequent(left, f.argument), ()))
    elif isinstance(node, FLeaf):
        f = node.formula
        if isinstance(f, Dia):
            new = Un(f.mode, FLeaf(f.body))
            out.append(((RuleName("DiaL", f.mode), site, None),
                        replace(ant, site, new), None, ()))
        elif isinstance(f, Product):
            new = Bin(f.mode, FLeaf(f.left), FLeaf(f.right))
            out.append(((RuleName("ProdL", f.mode), site, None),
                        replace(ant, site, new), None, ()))
        elif isinstance(f, BoxDown) and f.mode == VALUE:
            out.append(((RuleName("BoxDownL", VALUE), site, site),
                        replace(ant, site, FLeaf(f.body)), None, ()))
    elif isinstance(node, Un):
        body = node.body
        if (isinstance(body, FLeaf) and isinstance(body.formula, BoxDown)
                and body.formula.mode == node.mode):
            new = FLeaf(body.formula.body)
            out.append(((RuleName("BoxDownL", node.mode), site, None),
                        replace(ant, site, new), None, ()))


def _structural_moves_at(out, ant, site, node):
    """Add the postulate moves at one site, with T fused into consumers."""
    if (not site and not ant.has_cmode_node and not ant.has_unit
            and ant.has_open_cmode_formula):
        _plain(out, ant, site, ROOT_F, _root_fwd(node))
    new = _root_bwd(node)
    if new is not None:
        _plain(out, ant, site, ROOT_B, new)
    new = _left_fwd(node)
    if new is not None and node.left.left.has_open_cmode_formula:
        _plain(out, ant, site, LEFT_F, new)
    new = _left_bwd(node)
    if new is not None:
        _plain(out, ant, site, LEFT_B, new)
    if isinstance(node, Bin) and node.mode == CMODE:
        if (isinstance(node.left, Bin) and node.left.mode == DEFAULT
                and node.left.right.has_open_cmode_formula):
            _quoting(out, ant, site, node, (0, 0), RIGHT_F, _right_fwd)
        if isinstance(node.right, Bin) and node.right.mode == DEFAULT:
            _quoting(out, ant, site, node, (1, 1), RIGHT_B, _right_bwd)
    if isinstance(node, Bin) and node.mode == DEFAULT:
        if isinstance(node.left, Un) and node.left.mode == VALUE:
            _quoting(out, ant, site, node, (1,), KPRIME, _kprime)
        elif isinstance(node.right, Un) and node.right.mode == VALUE:
            _quoting(out, ant, site, node, (0,), KPRIME, _kprime)
    new = _unquote_ante(node)
    if new is not None:
        _plain(out, ant, site, UNQUOTE_ANTE, new)


def _reference_moves(ant):
    """The moves at ``ant`` in site order, each site's left moves, then its
    structural moves: the spine sites while a context is live, else the
    open sites."""
    sites = _spine_sites(ant) if ant.has_cmode_node else _open_sites(ant)
    out = []
    for site, node in sites:
        _left_moves_at(out, ant, site, node)
        _structural_moves_at(out, ant, site, node)
    return out


def test_the_walk_offers_the_reference_moves(lex, monkeypatch):
    # every antecedent whose moves parse_sentence asks for, on both goals
    # of every tree: the walk's moves equal the reference's, move for move
    # (step, main premise, minor premise, trace) and in order
    antecedents = {}

    class Recording(MoveTable):
        def moves_of(self, seq):
            antecedents.setdefault(seq.antecedent.key, seq.antecedent)
            return super().moves_of(seq)

    monkeypatch.setattr(polagram.parser, "MoveTable", Recording)
    for sentence in WALK_SLICE:
        parse_sentence(sentence, lex)
    for key, ant in antecedents.items():
        assert _antecedent_moves(ant) == _reference_moves(ant), key
    assert len(antecedents) == 28509


def _offered_moves_checked(node, moves):
    """Check that each of ``moves``, offered at ``node``, applied over stub
    premises, is one valid rule application, or a valid T over one; the
    number checked."""
    for step, premises, _trace in moves:
        stubs = tuple(Derivation(AXIOM, premise) for premise in premises)
        applied = [_apply_step(node, step, stubs)]
        if step[2] is not None:
            assert applied[0].rule == T_RULE
            applied.append(applied[0].premises[0])
        assert applied[-1].premises is stubs
        for d in applied:
            assert _expected_premises(d.rule, d.conclusion, d.site) \
                == [p.conclusion for p in d.premises], (str(node), step)
    return len(moves)


def test_every_offered_move_is_a_valid_rule_application(lex, monkeypatch):
    # every move offered at a node that parse_sentence's searches expand
    # over the grid and both possessives, extracted or not.  Extraction
    # builds what a fused T passes through, so this checks the T of every
    # move the search only offers.  The slice fuses T into Right→ and K′
    # only; the goal after it has the fused value-diamond introduction and
    # value box-down elimination
    expanded = {}

    class Recording(MoveTable):
        def moves_of(self, seq):
            moves = super().moves_of(seq)
            expanded[seq.key] = seq, moves
            return moves

    monkeypatch.setattr(polagram.parser, "MoveTable", Recording)
    for sentence in GRID + POSSESSIVES:
        parse_sentence(sentence, lex)
    assert sum(_offered_moves_checked(node, moves)
               for node, moves in expanded.values()) == 6129
    goal = seq("np * []np", "<>(np * np)")
    moves = MoveTable().moves_of(goal)
    assert [step for step, *_rest in moves] \
        == [(RuleName("DiaR"), (), ()), (RuleName("BoxDownL"), (1,), (1,))]
    _offered_moves_checked(goal, moves)


def _listing(seq, moves):
    """The moves at ``seq`` as plain data: the step's rule, site and
    quote, the premises' keys and the trace."""
    return [((str(rule), site, quote),
             [premise.key for premise in premises], trace)
            for (rule, site, quote), premises, trace in moves]


def test_table_moves_equal_fresh_moves(lex):
    # a table generates each antecedent's left and structural moves once
    # and threads every succedent the search reaches it under through them;
    # the result must equal the moves generated for the sequent alone
    expanded = antecedents = 0
    for sentence in SHARING_SENTENCES + POSSESSIVES:
        for tree in bracketings(tokenize(sentence, lex), lex):
            table = _RecordingTable()
            for goal_type in GOAL_TYPES:
                prove(Sequent(tree, goal_type), table=table)
            for key, (node, moves) in table.expanded.items():
                assert _listing(node, moves) == _listing(
                    node, MoveTable().moves_of(node)), key
            expanded += len(table.expanded)
            antecedents += len(table.halves)
    assert (expanded, antecedents) == (7159, 4497)


def test_one_antecedent_half_serves_every_succedent(lex):
    # the deriving possessive tree, both goals through one table: the
    # sequents expanded have far fewer distinct antecedents
    tree = parse_structure(POSSESSIVE, lex)
    table = _RecordingTable()
    # the second goal expands only the 94 sequents the first left
    # unreached, where a search of its own expands 468: each search
    # asks for the moves of each node it expands once, and solves exactly
    # the sequents it expands
    for goal_type, expanded, total in zip(GOAL_TYPES, (406, 94),
                                          (406, 500)):
        calls = table.calls
        prove(Sequent(tree, goal_type), table=table)
        assert table.calls - calls == expanded
        assert table.solved.keys() == table.expanded.keys()
        assert len(table.solved) == len(table.expanded) == total
    assert len(table.solved) == 500
    assert len(table.halves) == 292


# -- the succedent-side Unquote at a quoted root ------------------------------

def _has_value_diamond(st):
    """Whether the structure holds a value-mode structural diamond."""
    if isinstance(st, Un):
        return st.mode == VALUE or _has_value_diamond(st.body)
    if isinstance(st, Bin):
        return _has_value_diamond(st.left) or _has_value_diamond(st.right)
    return False


class AnywhereUnquoteTable(MoveTable):
    """The move table with the succedent-side Unquote also offered where
    the antecedent holds a value diamond anywhere but at its root, in the
    place the move had among the others.  ``extra`` counts the sequents
    it offered one at."""

    def __init__(self):
        super().__init__()
        self.extra = 0

    def moves_of(self, seq):
        out = super().moves_of(seq)
        ant, succ = seq.antecedent, seq.succedent
        if (isinstance(succ, Dia) and succ.mode == UMODE
                and not ant.has_cmode_node and _has_value_diamond(ant)
                and not (isinstance(ant, Un) and ant.mode == VALUE)):
            # no axiom applies to an antecedent with a structural diamond,
            # so the antecedent's list ends the moves, after the
            # succedent's
            at = len(out) - len(self.halves[ant.key])
            self.extra += 1
            out.insert(at, ((UNQUOTE_SUCC, (), None),
                            (Sequent(ant, Dia(VALUE, succ)),), ()))
        return out


def _has_cmode_formula(st):
    """Whether the structure holds a leaf formula with a c-mode connective,
    inside unary nodes too."""
    if isinstance(st, Un):
        return _has_cmode_formula(st.body)
    if isinstance(st, Bin):
        return _has_cmode_formula(st.left) or _has_cmode_formula(st.right)
    return isinstance(st, FLeaf) and st.formula.has_cmode


class DescendAnywhereTable(MoveTable):
    """The move table with Left→ and Right→ also offered where they move
    the focus into a constituent with no c-mode formula outside every
    unary node, that is, one that holds none or only quoted ones, and
    Root→ also offered at a continuation-free antecedent whose c-mode
    formulas are all quoted, after the moves the table offers.  ``extra``
    counts the moves it added."""

    def __init__(self):
        super().__init__()
        self.extra = 0

    def moves_of(self, seq):
        out = super().moves_of(seq)
        ant = seq.antecedent
        added = []
        if (not ant.has_cmode_node and not ant.has_unit
                and not ant.has_open_cmode_formula
                and _has_cmode_formula(ant)):
            _plain(added, ant, (), ROOT_F, _root_fwd(ant))
        # Left→ and Right→ work at c-mode nodes, which are all spine sites
        for site, node in _spine_sites(ant):
            inner = node.left
            if not (isinstance(inner, Bin) and inner.mode == DEFAULT):
                continue
            if not inner.left.has_open_cmode_formula:
                _plain(added, ant, site, LEFT_F, _left_fwd(node))
            if not inner.right.has_open_cmode_formula:
                _quoting(added, ant, site, node, (0, 0), RIGHT_F,
                         _right_fwd)
        self.extra += len(added)
        for step, main, minor, trace in added:
            first = Sequent(main, seq.succedent)
            out.append((step, (first,) if minor is None
                        else (first, minor), trace))
        return out


def _goal_traces(goal, table):
    """The scope traces phase 2 derives for ``goal``, in the order ``prove``
    returns them: one derivation each, with no cap on readings."""
    result = prove(goal, SearchBudget(10**6), table=table)
    assert not result.timed_out
    assert all(validate_derivation(d) for d in result.derivations)
    return [extract_reading(d).scope_order for d in result.derivations]


# the slice of both oracle tables, fixed before each was first run: the grid
# and both possessives
ORACLE_SLICE = GRID + POSSESSIVES


def _extra_after_equal_traces(lex, oracle_table):
    """Check that every (tree, goal) search over ``ORACLE_SLICE`` derives
    the same goal traces on a ``MoveTable`` as on ``oracle_table()``, so
    finds the same readings, each table shared by the goals of its tree;
    the oracle tables' ``extra`` counts, summed."""
    extra = 0
    for sentence in ORACLE_SLICE:
        for tree in bracketings(tokenize(sentence, lex), lex):
            table, oracle = MoveTable(), oracle_table()
            for goal_type in GOAL_TYPES:
                goal = Sequent(tree, goal_type)
                assert _goal_traces(goal, table) \
                    == _goal_traces(goal, oracle), (sentence, str(goal))
            extra += oracle.extra
    return extra


def test_unquote_at_a_quoted_root_loses_nothing(lex):
    # against a table that also offers the Unquote everywhere it used to
    assert _extra_after_equal_traces(lex, AnywhereUnquoteTable) == 968


def test_descending_only_toward_a_scope_taker_loses_nothing(lex):
    # against a table that also descends into constituents whose c-mode
    # formulas are none or all quoted, and opens a context at an antecedent
    # whose c-mode formulas are all quoted
    assert _extra_after_equal_traces(lex, DescendAnywhereTable) == 27850


# -- the skeleton check -------------------------------------------------------

def test_skeleton_refutations_are_exact(lex):
    # every (tree, goal) pair the check refutes has no derivation that the
    # search finds either, and that search ends; every tree that derives
    # passes the check.  As in parse_sentence and prove, the
    # goals of one tree share a table and the collector is paused.
    trees = {}
    for sentence in SHARING_SENTENCES + [
            "Nobody's mother saw anybody's father"]:
        for tree in bracketings(tokenize(sentence, lex), lex):
            trees.setdefault(_unlabelled(tree).key, tree)
        for d in parse_sentence(sentence, lex).derivations:
            assert not _skeleton_refutes(d.conclusion), sentence
    refuted = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for tree in trees.values():
            table = MoveTable()
            for goal_type in GOAL_TYPES:
                goal = Sequent(tree, goal_type)
                if _skeleton_refutes(goal):
                    result = _search(goal, SearchBudget(), None, table)
                    assert not result.derivations, str(goal)
                    assert not result.timed_out, str(goal)
                    refuted += 1
    finally:
        if enabled:
            gc.enable()
    assert refuted


def test_shared_skeleton_reductions_equal_unshared_ones(lex):
    # the trees of one sentence share each span's subtrees, and a subtree
    # keeps its reductions; every check on them, both goals of every tree in
    # turn, equals the check on a fresh copy that shares nothing
    checks = refuted = 0
    for sentence in WALK_SLICE:
        trees = bracketings(tokenize(sentence, lex), lex)
        shared = [_skeleton_refutes(Sequent(tree, goal_type))
                  for tree in trees for goal_type in GOAL_TYPES]
        copies = [structure_from_dict(structure_to_dict(tree))
                  for tree in trees]
        assert shared == [_skeleton_refutes(Sequent(tree, goal_type))
                          for tree in copies for goal_type in GOAL_TYPES]
        checks += len(shared)
        refuted += sum(shared)
    assert (checks, refuted) == (5644, 5508)


def test_a_parse_reduces_each_distinct_subtree_once(lex, monkeypatch):
    # "Nobody's mother saw anybody's father": 14 trees and 2 goals make 28
    # checks, which would visit 28 x 9 nodes, but the trees hold 39
    # distinct subtrees.  A second parse builds new trees and reduces them
    # again: the reductions live on the trees, not in a module-level cache
    reductions, checked, runs = polagram.prover._reductions, [], []

    def counting(st):
        if not hasattr(st, "skeleton_reductions"):
            runs.append(st)
        return reductions(st)

    refutes = polagram.prover._skeleton_refutes
    monkeypatch.setattr(polagram.prover, "_reductions", counting)
    monkeypatch.setattr(polagram.prover, "_skeleton_refutes",
                        lambda goal: checked.append(goal) or refutes(goal))
    for parse in (1, 2):
        assert parse_sentence(POSSESSIVES[0], lex).verdict == "grammatical"
        assert (len(checked), len(runs)) == (28 * parse, 39 * parse)
        assert len({id(st) for st in runs}) == len(runs)


# a type-raised subject and a verb taking one (higher-order slash
# arguments), and a scope-taker whose Out and In differ in skeleton
ABSTAIN_LEXICON = """\
bob := np
saw := (np \\ s0) / np
's mother := np \\ np
he := s0 / (np \\ s0)
sees := (np \\ s0) / (s0 / (np \\ s0))
whose := s0 /c (np \\c np)
"""


@pytest.mark.parametrize("antecedent,derives", [
    ("he * (saw * bob)", True),
    ("(he * saw) * bob", False),
    # bob lifts to the argument of sees, which application alone cannot do
    ("bob * (sees * bob)", True),
    # whose takes scope over an np context: np * (np \ np) reduces to np,
    # not s, and yet the clause derives
    ("whose * 's_mother", True),
])
def test_outside_the_fragment_the_search_decides(antecedent, derives):
    lexicon = load_lexicon(ABSTAIN_LEXICON)
    for goal_type in GOAL_TYPES:
        goal = Sequent(parse_structure(antecedent, lexicon), goal_type)
        assert not _skeleton_refutes(goal)
        result = prove(goal)
        searched = _search(goal, SearchBudget(), None, MoveTable())
        assert _proofs(result) == _proofs(searched)
        assert not result.timed_out
        assert bool(result.derivations) == derives


# -- re-importing the package -------------------------------------------------

# Imports the package afresh, as the benchmark does before each set-up, and
# prints how many copies of the prover's and core's namespaces are alive
# after 2 and after 10 re-imports.  A namespace outlives its module object
# while any function defined in it is alive, so namespaces are counted.
REIMPORT_SCRIPT = """
import gc, importlib, sys

def reimport():
    for name in [n for n in sys.modules
                 if n == "polagram" or n.startswith("polagram.")]:
        del sys.modules[name]
    importlib.import_module("polagram").default_lexicon()

def copies():
    gc.collect()
    return [sum(isinstance(o, dict) and o.get("__name__") == name
                and "__spec__" in o for o in gc.get_objects())
            for name in ("polagram.prover", "polagram.core")]

reimport()
counts = []
for n in (2, 8):
    for _ in range(n):
        reimport()
    counts.append(copies())
print(counts)
"""


def test_re_importing_the_package_frees_the_old_copies():
    # a module-level alias built with typing's generics lands in typing's
    # caches, which would keep every old copy of the package alive
    src = Path(polagram.prover.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", REIMPORT_SCRIPT],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    after_few, after_many = json.loads(proc.stdout)
    assert after_few == after_many


# -- serialization ------------------------------------------------------------

def test_derivation_round_trip(lex):
    for d in prove(seq("nobody * (saw * anybody)", "s0", lex)).derivations[:4]:
        blob = json.dumps(derivation_to_dict(d), sort_keys=True)
        again = derivation_from_dict(json.loads(blob))
        assert validate_derivation(again)
        assert again.render() == d.render()


def _recursive_walk(d):
    yield d
    for p in d.premises:
        yield from _recursive_walk(p)


def test_walk_is_the_recursive_preorder(parsed):
    # the same nodes, the very objects, in the same order as a recursive
    # preorder, over every derivation of the built-in corpus and the grid
    nodes = 0
    for sentence in [line.sentence for line in BUILTIN_CORPUS] + GRID:
        for d in parsed(sentence).derivations:
            walked = list(d.walk())
            reference = list(_recursive_walk(d))
            assert [id(n) for n in walked] == [id(n) for n in reference]
            nodes += len(walked)
    assert nodes > 1000
