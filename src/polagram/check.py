"""The calculus as data, and a derivation checker that reads nothing else.

``SCHEMATA`` states each rule of the calculus once, as a conclusion and its
premises in the sequent syntax of ``core``, after the rules of the
multimodal type-logical grammars of Moortgat, *Categorial Type Logics*
(1997).  In a schema ``X``, ``Y`` and ``Z`` stand for any structures and
``A``, ``B`` and ``C`` for any formulas; a formula variable where a
structure stands is a leaf of that formula.  ``@`` is the mode of a
mode-indexed rule: the rule is written once and holds in each mode of its
kind, unary where ``@`` marks a diamond or a box-down, else binary.  The
side conditions are in the schemata themselves: Right→ and Right← move
only a value diamond (``<>X``), the evaluation-order condition; K′ merges
two value diamonds; the antecedent-side Unquote cancels a value diamond
over a u-diamond; each mode-indexed rule matches its own mode alone.

A rule whose conclusion and first premise have different succedents (the
axiom and the right rules) applies at the root of the antecedent only.
Every other rule applies at any site: its conclusion's antecedent is
matched at that site, and its first premise's antecedent is plugged back
into the context around it.

This module imports ``core`` alone, so the checker shares with the search
whose derivations it checks only ``core``'s data types and their
navigation (``subtree`` and ``replace``, which say what a site is), and
nothing else.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter, itemgetter
from typing import List, Optional

from .core import (
    Atom, Bin, BoxDown, Dia, FLeaf, Over, Product, Sequent, Site, Un, Under,
    BINARY_MODES, UNARY_MODES, parse_sequent, replace, subtree,
)

# Each rule: its tag, its conclusion, then its premises.
SCHEMATA = (
    # the axiom, at any formula leaf, and the same step at a word's leaf
    ("Axiom", "A |- A"),
    ("Lex", "A |- A"),
    # the introductions, which decompose the succedent
    ("ProdR", "X *@ Y |- A *@ B", "X |- A", "Y |- B"),
    ("OverR", "X |- A /@ B", "X *@ B |- A"),
    ("UnderR", "X |- B \\@ A", "B *@ X |- A"),
    ("DiaR", "<@>X |- <@>A", "X |- A"),
    ("BoxDownR", "X |- [@]A", "<@>X |- A"),
    ("UnquoteSucc", "X |- <u>A", "X |- <><u>A"),
    # the eliminations, sequent-style, at a formula leaf of the antecedent
    ("OverL", "{A /@ B} *@ X |- C", "A |- C", "X |- B"),
    ("UnderL", "X *@ {B \\@ A} |- C", "A |- C", "X |- B"),
    ("ProdL", "{A *@ B} |- C", "A *@ B |- C"),
    ("DiaL", "{<@>A} |- C", "<@>A |- C"),
    ("BoxDownL", "<@>[@]A |- C", "A |- C"),
    # the structural postulates
    ("Root→", "X |- C", "X *c 1 |- C"),
    ("Root←", "X *c 1 |- C", "X |- C"),
    ("Left→", "(X * Y) *c Z |- C", "X *c (Y * Z) |- C"),
    ("Left←", "X *c (Y * Z) |- C", "(X * Y) *c Z |- C"),
    ("Right→", "(<>X * Y) *c Z |- C", "Y *c (Z * <>X) |- C"),
    ("Right←", "X *c (Y * <>Z) |- C", "(<>Z * X) *c Y |- C"),
    ("T", "X |- C", "<>X |- C"),
    ("K′", "<>X * <>Y |- C", "<>(X * Y) |- C"),
    ("UnquoteAnte", "<><u>X |- C", "<u>X |- C"),
)

# the parts of each node class, in its constructor's order after the mode
_PARTS = {Bin: ("left", "right"), Un: ("body",), Product: ("left", "right"),
          Over: ("result", "argument"), Under: ("argument", "result"),
          Dia: ("body",), BoxDown: ("body",)}


def _compile(pattern):
    """The matcher and the builder of ``pattern``, a structure or formula.
    The matcher takes a target and an environment and says whether the
    target is an instance of the pattern, binding the pattern's variables
    in the environment; the builder takes an environment and returns the
    pattern with its variables replaced by their values there, each
    formula leaf it builds without a word."""
    kind = type(pattern)
    if kind is FLeaf and not (type(pattern.formula) is Atom
                              and pattern.formula.name in ("X", "Y", "Z")):
        match, build = _compile(pattern.formula)
        return ((lambda target, env: type(target) is FLeaf
                 and match(target.formula, env)),
                lambda env: FLeaf(build(env)))
    if kind is FLeaf or kind is Atom:
        name = (pattern.formula if kind is FLeaf else pattern).name

        def bind(target, env):
            bound = env.setdefault(name, target)
            return bound is target or bound == target
        return bind, itemgetter(name)
    parts = _PARTS.get(kind)
    if parts is None:  # the unit
        return (lambda target, env: target == pattern), lambda env: pattern
    mode, get = pattern.mode, attrgetter(*parts)
    if len(parts) == 1:
        match, build = _compile(get(pattern))
        return ((lambda target, env: type(target) is kind
                 and target.mode == mode and match(get(target), env)),
                lambda env: kind(mode, build(env)))
    (match1, build1), (match2, build2) = map(_compile, get(pattern))

    def match_pair(target, env):
        if type(target) is not kind or target.mode != mode:
            return False
        first, second = get(target)
        return match1(first, env) and match2(second, env)
    return match_pair, lambda env: kind(mode, build1(env), build2(env))


@cache
def _rules() -> dict:
    """``SCHEMATA`` by (tag, mode), each mode slot filled: the matchers of
    the conclusion's antecedent and succedent, the builders of each
    premise's, and whether the rule applies at the root only.  Built on
    the first check, so that an import of the package builds nothing."""
    table = {}
    for tag, *texts in SCHEMATA:
        modes = (UNARY_MODES if "<@>" in texts[0] or "[@]" in texts[0]
                 else BINARY_MODES if "@" in texts[0] else ("",))
        for mode in modes:
            conclusion, *premises = [parse_sequent(text.replace("@", mode))
                                     for text in texts]
            at_root = (not premises
                       or premises[0].succedent != conclusion.succedent)
            table[tag, mode] = (
                _compile(conclusion.antecedent)[0],
                _compile(conclusion.succedent)[0],
                [(_compile(p.antecedent)[1], _compile(p.succedent)[1])
                 for p in premises], at_root)
    return table


def expected_premises(tag: str, mode: str, conclusion: Sequent,
                      site: Site) -> Optional[List[Sequent]]:
    """The premises that the rule ``tag`` in ``mode`` demands at ``site``
    of ``conclusion``'s antecedent, or None where it does not apply."""
    rule = _rules().get((tag, mode))
    if rule is None:
        return None
    antecedent, succedent, premises, at_root = rule
    if site and at_root:
        return None
    whole = conclusion.antecedent
    try:
        node = subtree(whole, site)
    except IndexError:  # the site names no subtree
        return None
    env: dict = {}
    if not (antecedent(node, env) and succedent(conclusion.succedent, env)):
        return None
    out = []
    for ant, succ in premises:
        # the first premise keeps the conclusion's context
        out.append(Sequent(ant(env) if out else replace(whole, site, ant(env)),
                           succ(env)))
    return out


def validate_derivation(d) -> bool:
    """Whether each node of the derivation ``d`` follows by its named rule
    at its named site: its premises' conclusions are those the rule's
    schema demands, in order.  Iterative, over ``d.walk()``."""
    return all(expected_premises(node.rule.tag, node.rule.mode,
                                 node.conclusion, node.site)
               == [p.conclusion for p in node.premises]
               for node in d.walk())
