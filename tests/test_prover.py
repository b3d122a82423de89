import gc
import json

import pytest

from polagram import (
    Bin, Derivation, FLeaf, RuleName, SearchBudget, Sequent, Un,
    NP, S0, SPLUS, SMINUS,
    derivation_from_dict, derivation_to_dict,
    bracketings, parse_formula, parse_structure, prove, tokenize,
    validate_derivation,
)
from polagram.prover import (
    KPRIME, LEFT_B, LEFT_F, RIGHT_B, RIGHT_F, ROOT_B, ROOT_F, T_RULE,
    UNQUOTE_ANTE, UNQUOTE_SUCC, MoveTable, _apply_chain, _left_bwd,
    _left_fwd, _moves, _right_bwd, _right_fwd, _root_bwd, _root_fwd,
    scope_firing,
)

CLAUSE_TYPES = {"s0": S0, "s+": SPLUS, "s-": SMINUS}


def seq(antecedent, succedent, lexicon=None):
    return Sequent(parse_structure(antecedent, lexicon),
                   parse_formula(succedent))


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
    assert not result.budget_exhausted  # refuted with budget to spare


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
    # twice the default for this 3-leaf goal: (64, 3 + 2, 16)
    goal = seq("np *c ((1 * <>anybody) * <>saw)", "s-", lex)
    assert not prove(goal, SearchBudget(128, 10, 32)).derivations


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


def test_wrong_site_rejected(lex):
    good = prove(seq("alice * (saw * bob)", "s0", lex)).derivations[0]
    bad = Derivation(good.rule, good.conclusion, good.premises,
                     site=good.site + (0,))
    assert not validate_derivation(bad)


def _node(rule, mode, ant, succ, premises, site=(), lexicon=None):
    return Derivation(RuleName(rule, mode), seq(ant, succ, lexicon),
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


def _reachable_moves(goal, limit):
    """The moves of up to ``limit`` sequents reachable from ``goal``,
    breadth first."""
    seen, queue, out = {goal.key}, [goal], []
    while queue and len(out) < limit:
        moves = _moves(queue.pop(0))
        out.append(moves)
        for _steps, premises, _s, _t in moves:
            for premise in premises:
                if premise.key not in seen:
                    seen.add(premise.key)
                    queue.append(premise)
    return out


def test_enumerate_includes_root_forward(lex):
    # Root introduces its unit at the root of an antecedent whose leaves
    # hold a continuation functor, and not where nothing could consume it
    goal = seq("nobody * (saw * anybody)", "s0", lex)
    roots = [(steps, premises) for steps, premises, _s, _t in _moves(goal)
             if steps[0][0] == ROOT_F]
    assert roots == [(((ROOT_F, (), goal),),
                      (seq("(nobody * (saw * anybody)) *c 1", "s0", lex),))]
    plain = seq("alice * (saw * bob)", "s0", lex)
    assert all(steps[0][0] != ROOT_F for steps, _p, _s, _t in _moves(plain))


def test_enumerate_right_forward(lex):
    goal = seq("(<>np * saw) *c np", "s0", lex)
    results = [premises for steps, premises, _s, _t in _moves(goal)
               if steps == ((RIGHT_F, (), goal),)]
    assert results == [(seq("saw *c (np * <>np)", "s0", lex),)]


def test_enumerate_no_t_without_budget(lex):
    # each move's cost counts the structural steps and the T insertions of
    # its chain, so a branch with no T budget left keeps no move with a T
    t_moves = 0
    for moves in _reachable_moves(seq("nobody * (saw * anybody)", "s0", lex),
                                  400):
        for steps, _premises, s_cost, t_cost in moves:
            rules = [rule for rule, _site, _conclusion in steps]
            assert t_cost == rules.count(T_RULE)
            assert s_cost == sum(rule in STRUCTURAL_RULES for rule in rules)
            t_moves += t_cost > 0
    assert t_moves > 0


def test_enumerate_deterministic_order(lex):
    goal = seq("nobody * (saw * anybody)", "s0", lex)
    again = seq("nobody * (saw * anybody)", "s0", lex)

    def listing(moves):
        return [[(str(r), s, c.full_key) for r, s, c in steps]
                + [p.full_key for p in premises]
                for steps, premises, _s, _t in moves]

    assert listing(_moves(goal)) == listing(_moves(goal)) \
        == listing(_moves(again))


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


def test_an_unset_t_budget_is_the_goals_leaves_plus_two(lex):
    # a budget built without a T cap searches exactly as no budget does:
    # with this goal's T cap of 3 leaves + 2, not a fixed default
    goal = seq("nobody * (saw * anybody)", "s0", lex)
    default = prove(goal)
    for budget in (SearchBudget(), SearchBudget(max_structural_steps=64)):
        result = prove(goal, budget)
        assert _proofs(result) == _proofs(default)
        assert result.budget_exhausted == default.budget_exhausted


def test_budget_monotonicity():
    goal = seq("s0", "s-")
    small = SearchBudget(max_structural_steps=12, max_t_insertions=2,
                         max_derivations=10000)
    big = SearchBudget(max_structural_steps=24, max_t_insertions=4,
                       max_derivations=10000)
    found_small = {json.dumps(derivation_to_dict(d), sort_keys=True)
                   for d in prove(goal, small).derivations}
    found_big = {json.dumps(derivation_to_dict(d), sort_keys=True)
                 for d in prove(goal, big).derivations}
    assert found_small <= found_big


class PlainSearch:
    """The reference search: a plain bounded depth-first search over
    ``_moves``, spending each branch's budget move by move.  Exponentially
    slower than ``prove`` on failing goals; kept as an independent check
    that the three-phase search does not change verdicts.  A move the
    branch cannot afford marks the search exhausted."""

    def __init__(self):
        self.exhausted = False
        self.path = set()

    def search(self, seq, s_rem, t_rem, want):
        path = self.path
        if seq.key in path:
            return []
        every = _moves(seq)
        moves = [m for m in every if m[2] <= s_rem and m[3] <= t_rem]
        self.exhausted = self.exhausted or len(moves) < len(every)
        found = []
        path.add(seq.key)
        for steps, premises, s_cost, t_cost in moves:
            if len(found) >= want:
                break
            s2, t2 = s_rem - s_cost, t_rem - t_cost
            # fused chains pass through intermediate sequents, which count
            # toward the branch's no-repeat check too
            mids = {c.key for _r, _s, c in steps[1:]}
            if mids & path:
                continue
            path |= mids
            if not premises:
                found.append(_apply_chain(steps, ()))
            elif len(premises) == 1:
                for sub in self.search(premises[0], s2, t2,
                                       want - len(found)):
                    found.append(_apply_chain(steps, (sub,)))
            else:
                need = want - len(found)
                mains = self.search(premises[0], s2, t2, need)
                sides = self.search(premises[1], s2, t2, need) \
                    if mains else []
                for main in mains:
                    for side in sides:
                        if len(found) < want:
                            found.append(_apply_chain(steps, (main, side)))
            path -= mids
        path.discard(seq.key)
        return found


def test_memo_and_plain_search_agree(lex):
    # the T caps of the first four cases are their formula leaves + 2
    cases = [
        ("np", "np", SearchBudget(64, 3, 2)),
        ("s0", "s+", SearchBudget(64, 3, 2)),
        ("s+", "s0", SearchBudget(64, 3, 2)),
        ("alice * (saw * bob)", "s0", SearchBudget(64, 5, 2)),
        ("nobody * (saw * anybody)", "s0",
         SearchBudget(max_structural_steps=24, max_t_insertions=5,
                      max_derivations=2)),
        ("np *c ((1 * <>anybody) * <>saw)", "s-",
         SearchBudget(max_structural_steps=18, max_t_insertions=4,
                      max_derivations=2)),
    ]
    for text, target, budget in cases:
        goal = seq(text, target, lex)
        result = prove(goal, budget)
        oracle = PlainSearch()
        found = oracle.search(goal, budget.max_structural_steps,
                              budget.max_t_insertions, budget.max_derivations)
        assert bool(result.derivations) == bool(found), text
        if not found and not oracle.exhausted:
            # a refutation the oracle completes uncut is uncut in prove too
            assert not result.budget_exhausted, text


def test_no_branch_repeats_a_sequent(lex):
    result = prove(seq("nobody * (saw * anybody)", "s0", lex))

    def check(d, seen):
        key = d.conclusion.key
        assert key not in seen
        for p in d.premises:
            check(p, seen | {key})

    for d in result.derivations:
        check(d, frozenset())


def test_max_derivations_cap(lex):
    goal = seq("nobody * (saw * anybody)", "s0", lex)
    result = prove(goal, SearchBudget(64, 5, 3))
    assert len(result.derivations) == 3


def test_timeout_reports_exhaustion(lex):
    goal = seq("nobody * ('s_mother * (saw * (anybody * 's_father)))",
               "s0", lex)
    result = prove(goal, deadline=0.0)
    assert result.timed_out and result.budget_exhausted
    assert not result.derivations


# -- the collector and the shared move table ---------------------------------

POSSESSIVE = "nobody * ('s_mother * (saw * (anybody * 's_father)))"


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
SHARING_SENTENCES = [f"{a} saw {b}" for a in GRID_WORDS
                     for b in GRID_WORDS] + ["Alice saw a man's mother"]


def _proofs(result):
    return [derivation_to_dict(d) for d in result.derivations]


@pytest.mark.parametrize("sentence", SHARING_SENTENCES)
def test_a_shared_move_table_changes_nothing(lex, sentence):
    for tree in bracketings(tokenize(sentence, lex), lex):
        goals = [Sequent(tree, goal_type) for goal_type in (S0, SPLUS)]
        fresh = {g.key: _proofs(prove(g)) for g in goals}
        for order in (goals, goals[::-1]):
            table = MoveTable()
            for goal in order:
                assert _proofs(prove(goal, table=table)) == fresh[goal.key]
            # hash-consing: each key has one Sequent object in the table;
            # each move carries the scope firing of its last step
            for fk, moves in table.moves.items():
                node = table.sequents[fk]
                assert node.full_key == fk
                for steps, premises, _s, _t, trace in moves:
                    assert steps[0][2] is node
                    for premise in premises:
                        assert premise is table.sequents[premise.full_key]
                    rule, site, conclusion = steps[-1]
                    firing = scope_firing(rule, conclusion, site)
                    assert trace == (() if firing is None else (firing,))


# -- serialization ------------------------------------------------------------

def test_derivation_round_trip(lex):
    for d in prove(seq("nobody * (saw * anybody)", "s0", lex)).derivations[:4]:
        blob = json.dumps(derivation_to_dict(d), sort_keys=True)
        again = derivation_from_dict(json.loads(blob))
        assert validate_derivation(again)
        assert again.render() == d.render()
