import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polagram.prover
from polagram import (
    Atom, Bin, BoxDown, Derivation, Dia, FLeaf, GOAL_TYPES, Over, Product,
    RuleName, SearchBudget, Sequent, Un, NP, S0, SPLUS, SMINUS, CMODE,
    DEFAULT, PMODE, UMODE, VALUE,
    derivation_from_dict, derivation_to_dict, extract_reading,
    bracketings, load_lexicon, parse_formula, parse_sentence,
    parse_structure, prove, tokenize, validate_derivation,
)
from polagram.check import expected_premises
from polagram.cli import BUILTIN_CORPUS
from polagram.core import BINARY_MODES, UNARY_MODES, replace, subtree
from polagram.prover import (
    AXIOM, BOX_DOWN_L, BOX_DOWN_R, KPRIME, LEFT_B, LEFT_F, LEX, RIGHT_B,
    RIGHT_F, ROOT_B, ROOT_F, T_RULE, UNQUOTE_ANTE, UNQUOTE_SUCC, MoveTable,
    _antecedent_moves, _apply_step, _extract, _search, _skeleton_refutes,
    scope_firing, structure_from_dict, structure_to_dict,
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


# Near misses, one per side condition of the postulates and the mode-indexed
# rules: each is one rule application whose premises are a real derivation,
# one that ``parse_sentence`` or, for a rule no sentence here uses, ``prove``
# returned, and whose conclusion breaks that one condition and nothing
# else, so that the rule with the condition dropped would demand exactly
# those premises.  The search never offers such a step, so only the
# checker can tell it apart.

NEAR_MISS_SENTENCES = ("Nobody saw anybody", "Alice saw a man's mother")
# and, for the rules that no derivation of those sentences applies, small
# sequents whose derivations do: ProdR, ProdL, BoxDownL and OverR
NEAR_MISS_SEQUENTS = (
    seq("np * np", "np * np"),
    Sequent(FLeaf(parse_formula("np * (np \\ s0)")), S0),
    Sequent(Un(PMODE, FLeaf(parse_formula("[p]s0"))), S0),
    seq("np", "s0 / (np \\ s0)"),
)


def _sites(st, site=()):
    """Every (site, subtree) of ``st``, in preorder."""
    yield site, st
    if isinstance(st, Bin):
        yield from _sites(st.left, site + (0,))
        yield from _sites(st.right, site + (1,))
    elif isinstance(st, Un):
        yield from _sites(st.body, site + (0,))


def _real_site(parsed, match):
    """The first derivation node, with a site of its antecedent, where
    ``match(subtree)`` holds."""
    for sentence in NEAR_MISS_SENTENCES:
        for d in parsed(sentence).derivations:
            for node in d.walk():
                for site, st in _sites(node.conclusion.antecedent):
                    if match(st):
                        return node, site, st
    raise AssertionError("no derivation node matches")


def _real_rule(parsed, tag):
    """The first derivation node whose rule is ``tag``, at any mode."""
    derivations = [d for sentence in NEAR_MISS_SENTENCES
                   for d in parsed(sentence).derivations]
    for goal in NEAR_MISS_SEQUENTS:
        derivations.extend(prove(goal).derivations)
    for d in derivations:
        for node in d.walk():
            if node.rule.tag == tag:
                return node
    raise AssertionError(f"no {tag} node")


def _is_value(st):
    return isinstance(st, Un) and st.mode == VALUE


def _rewritten_at(node, site, new, rule):
    """``rule`` at ``site`` of a conclusion that is ``node``'s with ``new``
    at ``site``, over ``node`` as its one premise."""
    c = node.conclusion
    return Derivation(rule, Sequent(replace(c.antecedent, site, new),
                                    c.succedent), (node,), site)


def _right_past_a_non_value(parsed):
    # (A * B) *c C, A no value, over the premise B *c (C * A)
    node, site, st = _real_site(parsed, lambda st: (
        isinstance(st, Bin) and st.mode == CMODE
        and isinstance(st.right, Bin) and st.right.mode == DEFAULT
        and not _is_value(st.right.right)))
    b, (c, a) = st.left, (st.right.left, st.right.right)
    return _rewritten_at(node, site, Bin(CMODE, Bin(DEFAULT, a, b), c),
                         RIGHT_F)


def _right_back_past_a_non_value(parsed):
    # A *c (B * N), N no value, over the premise (N * A) *c B
    node, site, st = _real_site(parsed, lambda st: (
        isinstance(st, Bin) and st.mode == CMODE
        and isinstance(st.left, Bin) and st.left.mode == DEFAULT
        and not _is_value(st.left.left)))
    (n, a), b = (st.left.left, st.left.right), st.right
    return _rewritten_at(node, site, Bin(CMODE, a, Bin(DEFAULT, b, n)),
                         RIGHT_B)


def _kprime_with_one_quote(left_quoted):
    # <>A * <u>B, or <u>A * <>B, over the premise <>(A * B)
    def build(parsed):
        node, site, st = _real_site(parsed, lambda st: (
            _is_value(st) and isinstance(st.body, Bin)
            and st.body.mode == DEFAULT))
        modes = (VALUE, UMODE) if left_quoted else (UMODE, VALUE)
        pair = Bin(DEFAULT, Un(modes[0], st.body.left),
                   Un(modes[1], st.body.right))
        return _rewritten_at(node, site, pair, KPRIME)
    return build


def _in_another_mode(x):
    """The formula or structure ``x`` with its outermost connective in
    another mode of its kind."""
    if isinstance(x, (Un, Dia, BoxDown)):
        modes, rest = UNARY_MODES, (x.body,)
    elif isinstance(x, (Bin, Product)):
        modes, rest = BINARY_MODES, (x.left, x.right)
    elif isinstance(x, Over):
        modes, rest = BINARY_MODES, (x.result, x.argument)
    else:
        modes, rest = BINARY_MODES, (x.argument, x.result)
    return type(x)(next(m for m in modes if m != x.mode), *rest)


def _rule_in_another_mode(tag, below=None):
    """The near miss over the first real ``tag`` node that puts the
    connective at ``below`` the rule's site, or the succedent's if
    ``below`` is None, in another mode than the rule's, the formula's at a
    formula leaf.  The rule demands the same premises in its own mode."""
    def build(parsed):
        node = _real_rule(parsed, tag)
        ant, succ = node.conclusion.antecedent, node.conclusion.succedent
        if below is None:
            succ = _in_another_mode(succ)
        else:
            site = node.site + below
            st = subtree(ant, site)
            ant = replace(ant, site, FLeaf(_in_another_mode(st.formula),
                                           st.word, st.pos)
                          if isinstance(st, FLeaf) else _in_another_mode(st))
        return Derivation(node.rule, Sequent(ant, succ), node.premises,
                          node.site)
    return build


def _unquote_over_a_non_u_diamond(parsed):
    # <><m>A, m not u, over the premise <m>A
    node, site, st = _real_site(parsed, lambda st: (
        isinstance(st, Un) and st.mode != UMODE))
    return _rewritten_at(node, site, Un(VALUE, st), UNQUOTE_ANTE)


def _a_step_past_a_binary_node(parsed):
    # a real node whose site steps right at a binary node, with each such
    # step 7 instead, read back from its dict form as input from outside
    node = next(node for node in parsed("Nobody saw anybody").derivations[0]
                .walk() if 1 in node.site)
    site = tuple(7 if step == 1 else step for step in node.site)
    return derivation_from_dict(derivation_to_dict(node._replace(site=site)))


def _a_step_into_a_unary_node_other_than_0(_parsed):
    # <p>{<u>np} |- <p><u>np by DiaL(u) at the leaf, named by step 1
    premise = prove(Sequent(Un(PMODE, Un(UMODE, FLeaf(NP))),
                            parse_formula("<p><u>np"))).derivations[0]
    return Derivation(RuleName("DiaL", UMODE),
                      Sequent(Un(PMODE, FLeaf(parse_formula("<u>np"))),
                              premise.conclusion.succedent), (premise,), (1,))


NEAR_MISSES = {
    "right-past-a-non-value": _right_past_a_non_value,
    "right-back-past-a-non-value": _right_back_past_a_non_value,
    "kprime-right-not-quoted": _kprime_with_one_quote(left_quoted=True),
    "kprime-left-not-quoted": _kprime_with_one_quote(left_quoted=False),
    "over-left-at-a-node-of-another-mode":
        _rule_in_another_mode("OverL", ()),
    "over-left-over-a-functor-of-another-mode":
        _rule_in_another_mode("OverL", (0,)),
    "under-left-at-a-node-of-another-mode":
        _rule_in_another_mode("UnderL", ()),
    "under-left-over-a-functor-of-another-mode":
        _rule_in_another_mode("UnderL", (1,)),
    "dia-intro-from-a-diamond-of-another-mode":
        _rule_in_another_mode("DiaR", ()),
    "dia-intro-to-a-diamond-of-another-mode": _rule_in_another_mode("DiaR"),
    "dia-left-of-a-diamond-of-another-mode":
        _rule_in_another_mode("DiaL", ()),
    "product-intro-to-a-product-of-another-mode":
        _rule_in_another_mode("ProdR"),
    "product-left-of-a-product-of-another-mode":
        _rule_in_another_mode("ProdL", ()),
    "box-down-intro-to-a-box-of-another-mode":
        _rule_in_another_mode("BoxDownR"),
    "box-down-left-of-a-box-of-another-mode":
        _rule_in_another_mode("BoxDownL", (0,)),
    "over-intro-to-a-slash-of-another-mode": _rule_in_another_mode("OverR"),
    "under-intro-to-a-slash-of-another-mode":
        _rule_in_another_mode("UnderR"),
    "unquote-over-a-non-u-diamond": _unquote_over_a_non_u_diamond,
    "a-site-step-past-a-binary-node": _a_step_past_a_binary_node,
    "a-site-step-into-a-unary-node-other-than-0":
        _a_step_into_a_unary_node_other_than_0,
}


@pytest.mark.parametrize("name", NEAR_MISSES)
def test_the_checker_rejects_a_near_miss(parsed, name):
    near_miss = NEAR_MISSES[name](parsed)
    assert all(validate_derivation(p) for p in near_miss.premises)
    assert not validate_derivation(near_miss)


def _with_every_step_1_made_7(d):
    """``d`` with every step 1 of every node's site made 7."""
    return d._replace(
        site=tuple(7 if step == 1 else step for step in d.site),
        premises=tuple(map(_with_every_step_1_made_7, d.premises)))


def test_a_derivation_whose_sites_name_nothing_has_no_reading(parsed):
    # read back from its dict form, as input from outside; each site that
    # steps right at a binary node steps 7 there instead, which names no
    # subtree, so the reading cannot be read off and the checker rejects it
    good = parsed("Nobody saw anybody").derivations[0]
    bad = derivation_from_dict(derivation_to_dict(
        _with_every_step_1_made_7(good)))
    assert any(7 in node.site and node.rule.tag == "OverL"
               for node in bad.walk())
    assert str(extract_reading(good)) == "nobody > anybody (linear)"
    with pytest.raises(IndexError):
        extract_reading(bad)
    assert not validate_derivation(bad)


def test_a_scope_firing_at_a_leaf_is_an_error(parsed):
    # an OverL(c) node whose site names a leaf of its antecedent, read back
    # from its dict form: the error holds under python -O as well
    node = next(node for node in parsed("Nobody saw anybody").derivations[0]
                .walk() if node.rule == RuleName("OverL", CMODE))
    leaf = next(site for site, st in _sites(node.conclusion.antecedent)
                if isinstance(st, FLeaf))
    bad = derivation_from_dict(derivation_to_dict(node._replace(site=leaf)))
    with pytest.raises(ValueError, match="names no binary node"):
        extract_reading(bad)


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
        return [[str(rule), site, fused] + [p.key for p in premises]
                for (rule, site, fused), premises, _trace
                in MoveTable().moves_of(at)]

    assert listing(goal) == listing(goal) == listing(again)


def test_bidirectional_postulates_compose_to_identity(lex):
    # wherever the checker takes a rotation or Root, its inverse at the
    # same site gives the conclusion back
    inverses = [(ROOT_F, ROOT_B), (ROOT_B, ROOT_F), (LEFT_F, LEFT_B),
                (LEFT_B, LEFT_F), (RIGHT_F, RIGHT_B), (RIGHT_B, RIGHT_F)]
    fired = set()
    for text in ["nobody * (saw * anybody)",
                 "np *c ((1 * <>anybody) * <>saw)",
                 "(<>np * saw) *c (np * 1)",
                 "(<>np * saw) *c 1"]:
        ant = parse_structure(text, lex)
        for site, _st in _sites(ant):
            for rule, inverse in inverses:
                premises = _checked(Sequent(ant, NP), site, rule)
                if premises is not None:
                    back = _checked(premises[0], site, inverse)
                    assert back[0].antecedent == ant, (str(rule), text)
                    fired.add(rule)
    assert fired == {rule for rule, _inverse in inverses}


# -- search behaviour ---------------------------------------------------------

def test_deterministic_output(lex):
    goal = seq("somebody * (saw * everybody)", "s0", lex)
    a = prove(goal)
    b = prove(goal)
    assert [d.render() for d in a.derivations] \
        == [d.render() for d in b.derivations]


def _step_cost(step):
    """The structural rules a move applies, its fused step among them."""
    rule, _site, fused = step
    return (rule in STRUCTURAL_RULES) + (fused is not None
                                         and fused[0] in STRUCTURAL_RULES)


class PlainSearch:
    """The reference search: a plain depth-first search over
    ``MoveTable().moves_of`` under a per-branch cap on structural steps,
    spent move by move (``_step_cost``), that repeats no sequent on a
    branch.  It finds one
    derivation per scope trace, and is exponentially slower than ``prove``;
    kept as an independent check of the agenda search.  A move the
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
            # a fused step passes through a sequent, which counts toward
            # the branch's no-repeat check too
            mids = set()
            if step[2] is not None:
                between = _apply_step(seq, step, ()).premises[0]
                mids.add(between.conclusion.key)
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


# -- the search over a hand-filled move table ---------------------------------

class _HandTable(MoveTable):
    """A move table whose moves are listed by hand, per node key; a node
    with none listed has none.  ``asked`` names the nodes whose moves the
    search asked for, in order."""

    def __init__(self):
        super().__init__()
        self.listed = {}
        self.asked = []

    def moves_of(self, seq):
        self.asked.append(seq.succedent.name)
        return self.listed.get(seq.key, [])


def _hand_table(moves):
    """A move table filled by hand with ``moves``, each (node, premise
    nodes, trace) and one step long, and the sequent of each node name."""
    table = _HandTable()
    node = {name: Sequent(FLeaf(Atom(name)), Atom(name))
            for at, premises, *_rest in moves for name in (at,) + premises}
    for at, premises, trace in moves:
        step = (RuleName("Step" if premises else "Axiom"), (), None)
        table.listed.setdefault(node[at].key, []).append(
            (step, tuple(node[p] for p in premises), trace))
    return table, node


def _hand_search(moves):
    """``_search`` from "goal" over ``_hand_table(moves)``; the nodes of
    each derivation found, in preorder."""
    table, node = _hand_table(moves)
    result = _search(node["goal"], SearchBudget(), None, table)
    assert not result.timed_out
    return [[n.conclusion.succedent.name for n in d.walk()]
            for d in result.derivations]


@pytest.mark.parametrize("goal_first", [True, False])
def test_a_join_takes_every_trace_the_other_premise_settled(goal_first):
    # goal -> (A, B); A -> V fires ("a", 0), V -> W and W -> X; B -> Y1
    # fires ("b", 1) and B -> Y2 fires ("c", 2).  With A first, B is
    # reached only once A derives its pair, so each of B's pairs joins A's
    # from B's side.  With B first, A is reached once B derives its first
    # pair, and A's pair, two steps longer, is derived after both of B's
    # are read: its own join must take each of them
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


def test_a_dead_first_premise_never_reaches_the_second():
    # goal -> (A, B); A -> D, and D has no move, so A derives nothing and
    # neither does the move: B, which would derive, is never reached, and
    # its moves are never asked for
    table, node = _hand_table([("goal", ("A", "B"), ()),
                               ("A", ("D",), ()),
                               ("B", ("Y",), ()),
                               ("Y", (), ())])
    result = _search(node["goal"], SearchBudget(), None, table)
    assert not result.derivations and not result.timed_out
    assert table.asked == ["goal", "A", "D"]
    assert set(table.solved) == {node[name].key for name in table.asked}


# goal -> (A, B), listed first, and goal -> D; D -> B, B -> Y; A -> B fires
# ("a", 0).  The search expands D first, so B is solved by that route
# before A is expanded: A's move is registered under a B that already holds
# its pair, which is replayed into it, and once A derives, the goal's join
# takes the pair B settled before the move was waiting on it
SOLVED_FIRST = [("goal", ("A", "B"), ()),
                ("goal", ("D",), ()),
                ("D", ("B",), ()),
                ("B", ("Y",), ()),
                ("A", ("B",), (("a", 0),)),
                ("Y", (), ())]


def test_a_pair_settled_by_another_route_is_replayed_into_the_join():
    table, node = _hand_table(SOLVED_FIRST)
    result = _search(node["goal"], SearchBudget(), None, table)
    assert table.asked.index("B") < table.asked.index("A")
    assert [[n.conclusion.succedent.name for n in d.walk()]
            for d in result.derivations] \
        == [["goal", "D", "B", "Y"], ["goal", "A", "B", "Y", "B", "Y"]]


# goal -> C, goal -> B and goal -> (A, B), in that order; A -> C fires
# ("a", 1), B -> C fires ("b", 2).  C is expanded last, so its one pair
# derives A's and then B's in one read: when A's pair is fed to the goal's
# item, B holds a pair that is derived but not yet read
UNREAD_SECOND = [("goal", ("C",), ()),
                 ("goal", ("B",), ()),
                 ("goal", ("A", "B"), ()),
                 ("A", ("C",), (("a", 1),)),
                 ("B", ("C",), (("b", 2),)),
                 ("C", (), ())]


def test_a_second_premise_pair_not_yet_read_joins_once(monkeypatch):
    # the item fed A's pair takes B's unread pair at once, and the read of
    # B's pair later finds the goal's pair derived; every item is
    # registered once
    feed, registered = polagram.prover._feed, []

    def recording(parent, move, parts, *rest):
        if len(parts) < len(move[1]):
            registered.append((parent, id(move), parts))
        feed(parent, move, parts, *rest)

    monkeypatch.setattr(polagram.prover, "_feed", recording)
    table, node = _hand_table(UNREAD_SECOND)
    result = _search(node["goal"], SearchBudget(), None, table)
    a, b = ("a", 1), ("b", 2)
    assert table.asked == ["goal", "A", "B", "C"]
    assert [[n.conclusion.succedent.name for n in d.walk()]
            for d in result.derivations] \
        == [["goal", "C"], ["goal", "B", "C"],
            ["goal", "A", "C", "B", "C"]]
    move, parts = table.solved[node["goal"].key][(a, b)]
    assert [p.succedent.name for p in move[1]] == ["A", "B"]
    assert parts == ((a,), (b,))
    assert len(registered) == len(set(registered)) == 6


def test_a_deadline_inside_the_one_loop_empties_the_solved_map():
    # the clock is read before each expansion and each pair read; a
    # deadline that passes at any of those reads, in a search that holds
    # an earlier call's solved node, leaves the solved map empty
    clock = _Clock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polagram.prover, "time", clock)
        table, node = _hand_table(SOLVED_FIRST)
        assert not _search(node["goal"], SearchBudget(), 1e12,
                           table).timed_out
        checks = clock.reads - 1
        pairs = sum(len(by_trace) for by_trace in table.solved.values())
        assert checks == len(table.asked) + pairs
        for cut in range(1, checks + 1):
            table, node = _hand_table(SOLVED_FIRST)
            table.solved["earlier"] = {(): None}
            clock.reads = 0
            result = _search(node["goal"], SearchBudget(), float(cut), table)
            assert result.timed_out and not result.derivations
            assert table.solved == {}, cut


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


def test_replacing_a_subtree_by_itself_changes_nothing(lex):
    sites = 0
    for sentence in GRID + POSSESSIVE_FRAME:
        for tree in bracketings(tokenize(sentence, lex), lex):
            for site, st in _sites(tree):
                assert subtree(tree, site) is st
                assert replace(tree, site, st) == tree
                sites += 1
    assert sites > len(GRID + POSSESSIVE_FRAME)


def _proofs(result):
    return [derivation_to_dict(d) for d in result.derivations]


def _digest_line(d):
    """The line of the derivation ``d`` in every pinned sha256 of
    derivations: ``json.dumps(derivation_to_dict(d), sort_keys=True)`` and
    a newline, encoded."""
    return json.dumps(derivation_to_dict(d), sort_keys=True).encode(
        "utf-8") + b"\n"


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


# The sentences of ``SHARING_SENTENCES`` where a later goal on a shared
# table returns another rule-order variant of a reading than a fresh search
# (``prove`` allows it: the witnesses come from the pairs the first goal
# solved), with the goal types that do and, for each, a sha256 over the
# ``_digest_line`` of each derivation it returns there, tree by tree
LATER_GOAL_DERIVATIONS_SHA256 = {
    "nobody saw alice": {
        "s0": "4271613aec0ae7f18d3224d55c457cd80bc8e7dce407be47add33988619aa586",
        "s+": "3842471f78a6e30ae69872efb87ff90db2a5ea522e668160a89fb268d59c66e8"},
    "nobody saw bob": {
        "s0": "fc7d2156261d5215ebf77e23d8925718d7860c230ae33f4e6dbe68d07ed2f440",
        "s+": "f503775a89675d9a0e2be426635e3aae439f075ef57d2ef21dff76cc9180e75b"},
    "nobody saw somebody": {
        "s+": "a01352a61e6cdf4d5cc22a621e3ea6884441fabfa7aace850c09bf8eac3fffb4"},
    "nobody saw everybody": {
        "s0": "cb37bd67427c839e2ae4cfe65c8c457d0056aab57b85695390a731984be44d18",
        "s+": "7fc438330fae8135d0a3b9147f709f5dc4b7dca9d9347d3ce1a3e7c63c984ea7"},
}


def _later_goal_sha256(results):
    digest = hashlib.sha256()
    for result in results:
        for d in result.derivations:
            digest.update(_digest_line(d))
    return digest.hexdigest()


@pytest.mark.parametrize("sentence", SHARING_SENTENCES)
def test_a_shared_move_table_changes_nothing(lex, sentence):
    checked = 0
    later = {}
    for tree in bracketings(tokenize(sentence, lex), lex):
        goals = [Sequent(tree, goal_type) for goal_type in (S0, SPLUS)]
        fresh = {g.key: prove(g) for g in goals}
        for order in (goals, goals[::-1]):
            table = _RecordingTable()
            for position, goal in enumerate(order):
                result, alone = prove(goal, table=table), fresh[goal.key]
                if _proofs(result) != _proofs(alone):
                    # the first goal on a table gets exactly a fresh
                    # search's derivations, a later one its readings in
                    # the pinned derivations
                    assert position
                    assert _readings(result) == _readings(alone)
                    later.setdefault(str(goal.succedent), []).append(result)
            # a fused step sits at or below its rule's site; each move
            # carries the scope firing of its rule, and a move that fires
            # fuses no step, so the rule reads its node's antecedent; an
            # antecedent move holds the very step tuple of its antecedent's
            # list, whatever the succedent
            checked += len(table.expanded)
            for key, (node, moves) in table.expanded.items():
                assert node.key == key
                for (rule, site, fused), premises, trace in moves:
                    assert fused is None or fused[1][:len(site)] == site
                    firing = scope_firing(rule, node.antecedent, site)
                    assert trace == (() if firing is None else (firing,))
                    assert firing is None or fused is None
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
    assert {goal: _later_goal_sha256(results)
            for goal, results in later.items()} \
        == LATER_GOAL_DERIVATIONS_SHA256.get(sentence, {})


def _readings(result):
    return [extract_reading(d).scope_order for d in result.derivations]


def test_a_later_goal_on_a_solved_table_keeps_its_readings(lex, searched):
    # over the possessive frame, every tree with both goal orders on one
    # table: parse_sentence's own calls (GOAL_TYPES in order) and the
    # reverse order.  The first goal gets exactly a fresh search's
    # derivations; a later goal replays the pairs the first solved, so it may
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
    # a search cut anywhere in its one loop, at the expansion of a node or
    # at the read of a pair, empties the table's solved map, the pairs an
    # earlier goal solved included, so the next search on that table is
    # exactly a fresh search: for the first goal of the possessive tree,
    # and for its second goal after the first
    tree = parse_structure(POSSESSIVE, lex)
    first, second = (Sequent(tree, goal_type) for goal_type in GOAL_TYPES)
    fresh = {goal.key: _proofs(prove(goal)) for goal in (first, second)}
    clock = _Clock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polagram.prover, "time", clock)
        for goal, before_it in ((first, ()), (second, (first,))):
            # the clock reads of an uncut search, the first setting the
            # deadline: a deadline of 1 cuts the goal's expansion, and one
            # of the last count the last check, the read of the last pair
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
    # the clock is read in the agenda loop only, so an uncut search reads
    # it as often whatever number of derivations it extracts
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
    # replays solved nodes' pairs without expanding them, so its derivation
    # runs through nodes it never reached, which only the table holds
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
# the checker (``polagram.check``) at every site for each rule whose
# connectives stand there, and apply the normal form's gates to what it
# takes.  ``prover._walk`` must match it move for move.

def _open_sites(st, prefix=(), spine=False):
    """Sites ordered leftmost-innermost (children before parents), stopping
    at unary wrappers: a quoted (or otherwise boxed) subtree is opaque until
    the wrapper is consumed, so moves strictly inside it commute to after
    its removal.  With ``spine``, only the c-mode sites, in the same order:
    while a context is live no other site offers a move, and only a
    subtree with a c-mode node holds one."""
    out = []
    if isinstance(st, Bin) and (st.has_cmode_node or not spine):
        out.extend(_open_sites(st.left, prefix + (0,), spine))
        out.extend(_open_sites(st.right, prefix + (1,), spine))
    if not spine or isinstance(st, Bin) and st.mode == CMODE:
        out.append((prefix, st))
    return out


def _checked(seq, site, rule):
    """The premises the checker demands of ``rule`` at ``site`` of the
    antecedent of ``seq``, or None where the rule does not apply."""
    return expected_premises(rule.tag, rule.mode, seq, site)


def _offer(out, seq, site, rule, below=None, trace=()):
    """Add the move of ``rule`` at ``site`` of the antecedent of ``seq``, a
    sequent under a stand-in succedent, where the checker takes it, with
    the premises it demands.  A rule that needs a value diamond at
    ``below`` the site applies alone if one is there, else after a fused
    T that quotes the subtree there, unless that holds the unit."""
    step = (rule, site, None)
    target = below is not None and subtree(seq.antecedent, site + below)
    if target and not _is_value(target):
        if target.has_unit:
            return
        seq = _checked(seq, site + below, T_RULE)[0]
        step = (rule, site, (T_RULE, site + below))
    premises = _checked(seq, site, rule)
    if premises:
        out.append((step, premises[0].antecedent,
                    premises[1] if premises[1:] else None, trace))


def _left_moves_at(out, seq, site, node):
    """Add the left moves at ``node``, the subtree at ``site`` of the
    antecedent of ``seq``: the eliminations of a connective of the node's
    mode or, at a formula leaf, of its formula's, where the checker takes
    them."""
    if isinstance(node, Bin):
        if isinstance(node.left, FLeaf):
            rule = RuleName("OverL", node.mode)
            firing = scope_firing(rule, seq.antecedent, site)
            _offer(out, seq, site, rule,
                   trace=() if firing is None else (firing,))
        if isinstance(node.right, FLeaf):
            _offer(out, seq, site, RuleName("UnderL", node.mode))
    elif isinstance(node, FLeaf):
        f = node.formula
        if isinstance(f, (Dia, Product)):
            tag = "DiaL" if isinstance(f, Dia) else "ProdL"
            _offer(out, seq, site, RuleName(tag, f.mode))
        elif isinstance(f, BoxDown) and f.mode == VALUE:
            _offer(out, seq, site, BOX_DOWN_L[VALUE], ())
    elif isinstance(node, Un) and isinstance(node.body, FLeaf):
        _offer(out, seq, site, BOX_DOWN_L[node.mode])


def _has_cmode_formula(st):
    """Whether the structure holds a leaf formula with a c-mode connective,
    inside unary nodes too."""
    if isinstance(st, Un):
        return _has_cmode_formula(st.body)
    if isinstance(st, Bin):
        return _has_cmode_formula(st.left) or _has_cmode_formula(st.right)
    return isinstance(st, FLeaf) and st.formula.has_cmode


# the gates of the move table's normal form, each named for what opening it
# offers: the succedent-side Unquote where a quote is below the root; Root→,
# Left→ and Right→ toward a constituent with no open scope-taker; K′
# quoting a pair that holds an open quote; Left← moving the unit into the
# focus; the Unquote and the box-down introduction apart from the diamond
# introduction the table fuses them into
UNQUOTE_ANYWHERE, DESCEND_ANYWHERE, QUOTE_ANYWHERE, CLIMB_ANYWHERE, UNFUSED = \
    GATES = ("unquote-anywhere", "descend-anywhere", "quote-anywhere",
             "climb-anywhere", "unfused")


def _structural_moves_at(out, seq, site, node, gates_open=()):
    """Add the postulate moves at one site, with T fused into consumers.
    Unless ``gates_open`` names the gate: Root→, Left→ and Right→ make a
    constituent the focus only where it holds an open c-mode formula
    (``DESCEND_ANYWHERE``), Left← moves no unit into the focus
    (``CLIMB_ANYWHERE``), and K′ quotes a sibling that is no quote only if
    it holds no open quote (``QUOTE_ANYWHERE``).  With its gate open,
    Root→ still needs a c-mode formula somewhere in the antecedent, quoted
    or not."""
    ant, descend = seq.antecedent, DESCEND_ANYWHERE in gates_open
    if (not site and not ant.has_cmode_node and not ant.has_unit
            and (_has_cmode_formula(ant) if descend
                 else ant.has_open_cmode_formula)):
        _offer(out, seq, site, ROOT_F)
    if isinstance(node, Un) and isinstance(node.body, Un):
        _offer(out, seq, site, UNQUOTE_ANTE)
    if not isinstance(node, Bin):
        return
    left, right = node.left, node.right
    if node.mode == CMODE:
        # the gates read the new focus off the conclusion: Left→ and Right→
        # make left.left and left.right the focus, Left← adds right.left
        _offer(out, seq, site, ROOT_B)
        down, up = isinstance(left, Bin), isinstance(right, Bin)
        if down and (descend or left.left.has_open_cmode_formula):
            _offer(out, seq, site, LEFT_F)
        if up and (CLIMB_ANYWHERE in gates_open or not right.left.has_unit):
            _offer(out, seq, site, LEFT_B)
        if down and (descend or left.right.has_open_cmode_formula):
            _offer(out, seq, site, RIGHT_F, (0, 0))
        if up:
            _offer(out, seq, site, RIGHT_B, (1, 1))
    elif _is_value(left) or _is_value(right):
        below, sibling = ((1,), right) if _is_value(left) else ((0,), left)
        if QUOTE_ANYWHERE in gates_open or _is_value(sibling) \
                or not sibling.has_open_quote:
            _offer(out, seq, site, KPRIME, below)


def _reference_moves(ant, gates_open=()):
    """The moves at ``ant`` in site order, each site's left moves, then its
    structural moves: the spine sites while a context is live, else the
    open sites.  ``gates_open`` passes ``_structural_moves_at`` the gates
    it opens."""
    out, seq = [], Sequent(ant, NP)
    for site, node in _open_sites(ant, spine=ant.has_cmode_node):
        _left_moves_at(out, seq, site, node)
        _structural_moves_at(out, seq, site, node, gates_open)
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
    assert len(antecedents) == 6799


def _offered_moves_checked(node, moves):
    """Check that each of ``moves``, offered at ``node``, applied over stub
    premises, is one valid rule application, or a valid application of
    its fused step over one; the number checked."""
    for step, premises, _trace in moves:
        stubs = tuple(Derivation(AXIOM, premise) for premise in premises)
        applied = [_apply_step(node, step, stubs)]
        if step[2] is not None:
            assert (applied[0].rule, applied[0].site) == step[2]
            applied.append(applied[0].premises[0])
        assert applied[-1].premises is stubs
        for d in applied:
            assert expected_premises(d.rule.tag, d.rule.mode,
                                     d.conclusion, d.site) \
                == [p.conclusion for p in d.premises], (str(node), step)
    return len(moves)


def test_every_offered_move_is_a_valid_rule_application(lex, monkeypatch):
    # every move offered at a node that parse_sentence's searches expand
    # over the grid and both possessives, extracted or not.  Extraction
    # builds what a fused step passes through, so this checks the fused
    # step of every move the search only offers.  The slice fuses T into
    # Right→ and K′, and the succedent-side Unquote and the box-down
    # introduction into diamond introductions; the goal after it has T
    # fused into the value-diamond introduction and the value box-down
    # elimination
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
               for node, moves in expanded.values()) == 3193
    goal = seq("np * []np", "<>(np * np)")
    moves = MoveTable().moves_of(goal)
    assert [step for step, *_rest in moves] \
        == [(RuleName("DiaR"), (), (T_RULE, ())),
            (RuleName("BoxDownL"), (1,), (T_RULE, (1,)))]
    _offered_moves_checked(goal, moves)


def _listing(seq, moves):
    """The moves at ``seq`` as plain data: the step's rule, site and
    fused step, the premises' keys and the trace."""
    return [((str(rule), site, fused),
             [premise.key for premise in premises], trace)
            for (rule, site, fused), premises, trace in moves]


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
    assert (expanded, antecedents) == (3392, 2130)


def test_one_antecedent_half_serves_every_succedent(lex):
    # the deriving possessive tree, both goals through one table: the
    # sequents expanded have far fewer distinct antecedents
    tree = parse_structure(POSSESSIVE, lex)
    table = _RecordingTable()
    # the second goal expands only the 52 sequents the first left
    # unreached, where a search of its own expands 193: each search
    # asks for the moves of each node it expands once, and solves exactly
    # the sequents it expands
    for goal_type, expanded, total in zip(GOAL_TYPES, (169, 52),
                                          (169, 221)):
        calls = table.calls
        prove(Sequent(tree, goal_type), table=table)
        assert table.calls - calls == expanded
        assert table.solved.keys() == table.expanded.keys()
        assert len(table.solved) == len(table.expanded) == total
    assert len(table.solved) == 221
    assert len(table.halves) == 116


def _bench_round(name, monkeypatch):
    """The sentences of one seed-1 round of the benchmark workload
    ``name``, as ``bench/workloads.py`` draws them; the module is loaded
    from its path, under a name that ``monkeypatch`` drops afterwards."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.GENERATORS[name](1).sentences


@pytest.mark.parametrize("workload,expanded", [
    pytest.param("grid", 2953, id="grid"),
    pytest.param("possessive", 374, id="possessive"),
])
def test_a_bench_round_expands_a_pinned_number_of_sequents(
        lex, monkeypatch, workload, expanded):
    # the size of the graph the benchmark's searches walk: the sequents
    # that one parse_sentence round of the workload's seed-1 sentences
    # expands, so that a change which regrows the graph fails here too
    calls = []

    class Counting(MoveTable):
        def moves_of(self, seq):
            calls.append(seq)
            return super().moves_of(seq)

    monkeypatch.setattr(polagram.parser, "MoveTable", Counting)
    for sentence in _bench_round(workload, monkeypatch):
        parse_sentence(sentence, lex)
    assert len(calls) == expanded


# -- the normal-form gates, all open -----------------------------------------

def _has_value_diamond(st):
    """Whether the structure holds a value-mode structural diamond."""
    if isinstance(st, Un):
        return st.mode == VALUE or _has_value_diamond(st.body)
    if isinstance(st, Bin):
        return _has_value_diamond(st.left) or _has_value_diamond(st.right)
    return False


class AllGatesOpenTable(MoveTable):
    """The move table with the gates ``gates`` of its normal form open, by
    default every one: each antecedent's list generated by
    ``_reference_moves`` with those gates open, so each withheld Root→,
    Left→, Right→, Left← and K′ sits in the place it had among the others,
    and after a sequent's other moves, the succedent-side Unquote wherever
    the antecedent holds a value diamond and no context is live (below the
    root under ``UNQUOTE_ANYWHERE``, at a quoted root, where the table
    fuses it, under ``UNFUSED``), and under ``UNFUSED`` the box-down
    introduction where the table fuses it into its diamond introduction,
    each with the premise the validator's rule demands.  ``extra`` counts
    the moves it adds to the table's: an antecedent list's once, when the
    list is generated, and the succedent's at each sequent whose moves it
    assembles."""

    def __init__(self, gates=GATES):
        super().__init__()
        self.gates = frozenset(gates)
        self.extra = 0

    def moves_of(self, seq):
        ant, succ = seq.antecedent, seq.succedent
        if ant.key not in self.halves:
            moves = self.halves[ant.key] = _reference_moves(ant, self.gates)
            self.extra += len(moves) - len(_antecedent_moves(ant))
        out = super().moves_of(seq)
        unfused = []
        if (not ant.has_cmode_node and _has_value_diamond(ant)
                and (UNFUSED if _is_value(ant) else UNQUOTE_ANYWHERE)
                in self.gates):
            unfused.append(UNQUOTE_SUCC)
        # at a box-down succedent, the one succedent move comes first
        if UNFUSED in self.gates and isinstance(succ, BoxDown) and out and \
                out[0][0][2] == (BOX_DOWN_R[succ.mode], ()):
            unfused.append(BOX_DOWN_R[succ.mode])
        for rule in unfused:
            # where the checker takes it, with the premise it demands
            premises = expected_premises(rule.tag, rule.mode, seq, ())
            if premises is not None:
                out.append(((rule, (), None), tuple(premises), ()))
                self.extra += 1
        return out


def _goal_traces(goal, table):
    """The scope traces the search derives for ``goal``, in the order
    ``prove`` returns them: one derivation each, with no cap on
    readings."""
    result = prove(goal, SearchBudget(10**6), table=table)
    assert not result.timed_out
    assert all(validate_derivation(d) for d in result.derivations)
    return [extract_reading(d).scope_order for d in result.derivations]


# the slice of the oracle table and the exhaustive search, fixed before
# either was first run: the grid and both possessives
ORACLE_SLICE = GRID + POSSESSIVES


def _extra_after_equal_traces(lex, oracle_table, sentences=ORACLE_SLICE):
    """Check that every (tree, goal) search over ``sentences`` derives the
    same goal traces on a ``MoveTable`` as on ``oracle_table()``, so finds
    the same readings, each table shared by the goals of its tree; the
    ``extra`` counts of the oracle tables, one per tree, summed."""
    extra = 0
    for sentence in sentences:
        for tree in bracketings(tokenize(sentence, lex), lex):
            table, oracle = MoveTable(), oracle_table()
            for goal_type in GOAL_TYPES:
                goal = Sequent(tree, goal_type)
                assert _goal_traces(goal, table) \
                    == _goal_traces(goal, oracle), (sentence, str(goal))
            extra += oracle.extra
    return extra


def test_opening_every_gate_loses_nothing(lex):
    # The table offers moves in a normal form, under five gates: the
    # succedent-side Unquote only at a quoted root, the focus descends
    # only toward an open scope-taker, K′ merges quotes innermost first,
    # Left← never takes the unit into the focus, and the Unquote and the
    # box-down introduction are fused into their diamond introduction.
    # At every sequent the union offers each move that opening any of the
    # gates adds, and more moves can only add traces, so where its goal
    # traces equal prove's, so do those of a table that opens fewer gates
    assert _extra_after_equal_traces(lex, AllGatesOpenTable) == 19175


# Each gate alone, so that a gate whose moves the search cannot do without
# is named; the union above checks them together.

def _one_gate(gate):
    return lambda: AllGatesOpenTable((gate,))


def test_unquote_at_a_quoted_root_loses_nothing(lex):
    # against a table that also offers the Unquote everywhere it used to
    assert _extra_after_equal_traces(lex, _one_gate(UNQUOTE_ANYWHERE)) \
        == 517


def test_descending_only_toward_a_scope_taker_loses_nothing(lex):
    # against a table that also descends into constituents whose c-mode
    # formulas are none or all quoted, and opens a context at an antecedent
    # whose c-mode formulas are all quoted
    assert _extra_after_equal_traces(lex, _one_gate(DESCEND_ANYWHERE)) \
        == 1963


def test_merging_quotes_innermost_first_loses_nothing(lex):
    # against a table that also quotes, for K′, a pair that holds an open
    # quote
    assert _extra_after_equal_traces(lex, _one_gate(QUOTE_ANYWHERE)) == 112


def test_climbing_toward_the_unit_loses_nothing(lex):
    # against a table that also offers the Left← that moves the unit into
    # the focus
    assert _extra_after_equal_traces(lex, _one_gate(CLIMB_ANYWHERE)) == 274


def test_fusing_the_unquote_and_the_box_down_loses_nothing(lex):
    # against a table that also offers the succedent-side Unquote and the
    # box-down introduction apart from the diamond introduction
    assert _extra_after_equal_traces(lex, _one_gate(UNFUSED)) == 451


# -- the exhaustive reference search ------------------------------------------

class ExhaustiveSearch:
    """The reference search, in two phases, on its own ``MoveTable``,
    which the goals of one tree share.  Phase 1 expands every sequent
    reachable from the goal, each move indexed under each of its
    premises, so the second premise of a two-premise move is expanded
    whether or not the first derives anything; phase 2 derives every
    (node, trace) pair by the same fixpoint as ``prove``.  A node an
    earlier call solved is not expanded: phase 2 is seeded with its pairs.
    The same skeleton check as ``prove`` runs first, and nothing caps the
    readings or cuts the search."""

    def __init__(self):
        self.table = MoveTable()

    def prove(self, goal):
        """One derivation per goal trace, shortest traces first."""
        if _skeleton_refutes(goal):
            return []
        solved = self.table.solved
        deps = {goal.key: []}
        agenda = []
        work = [goal]
        while work:
            node = work.pop()
            key = node.key
            by_trace = solved.get(key)
            if by_trace is not None:
                agenda.extend([(key, trace) for trace in by_trace])
                continue
            by_trace = solved[key] = {}
            for move in self.table.moves_of(node):
                premises = move[1]
                if not premises and not by_trace:  # the axiom
                    by_trace[()] = (move, ())
                    agenda.append((key, ()))
                for slot, premise in enumerate(premises):
                    if premise.key not in deps:
                        deps[premise.key] = []
                        work.append(premise)
                    deps[premise.key].append((key, move, slot))
        for key, trace in agenda:
            for parent, move, slot in deps[key]:
                premises, own = move[1], move[2]
                by_trace = solved[parent]
                if len(premises) == 1:
                    joined = [(own + trace, (trace,))]
                else:
                    joined = []
                    for other in tuple(solved[premises[1 - slot].key]):
                        parts = (trace, other) if slot == 0 \
                            else (other, trace)
                        joined.append((own + parts[0] + parts[1], parts))
                for new, parts in joined:
                    if new not in by_trace:
                        by_trace[new] = (move, parts)
                        agenda.append((parent, new))
        traces = sorted(solved[goal.key],
                        key=lambda trace: (len(trace), trace))
        return [_extract(solved, goal, trace) for trace in traces]


def _unreached_after_equal_traces(lex, sentences):
    """Check that on every (tree, goal) over ``sentences``, ``prove`` finds
    the same goal traces, in the same order, as ``ExhaustiveSearch``, each
    side's table shared by the goals of its tree, and that every sequent
    ``prove`` has solved then holds exactly the reference's trace set; the
    number of sequents the reference solves that ``prove`` never reached,
    summed over the trees."""
    unreached = 0
    for sentence in sentences:
        for tree in bracketings(tokenize(sentence, lex), lex):
            table, reference = MoveTable(), ExhaustiveSearch()
            for goal_type in GOAL_TYPES:
                goal = Sequent(tree, goal_type)
                derivations = reference.prove(goal)
                assert all(validate_derivation(d) for d in derivations)
                assert _goal_traces(goal, table) \
                    == [extract_reading(d).scope_order for d in derivations], \
                    (sentence, str(goal))
                theirs = reference.table.solved
                for key, by_trace in table.solved.items():
                    assert by_trace.keys() == theirs[key].keys(), key
            unreached += len(reference.table.solved) - len(table.solved)
    return unreached


def test_the_exhaustive_search_finds_the_same_traces(lex, monkeypatch):
    # over ORACLE_SLICE and both seed-1 benchmark rounds; the demand rule
    # leaves the reference's unreached sequents out
    sentences = list(dict.fromkeys(
        ORACLE_SLICE + list(_bench_round("grid", monkeypatch))
        + list(_bench_round("possessive", monkeypatch))))
    assert _unreached_after_equal_traces(lex, sentences) == 1501


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
        again = derivation_from_dict(json.loads(_digest_line(d)))
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
