"""Backward proof search for the multimodal logic.

The rule set has three layers:

* goal-directed right rules that decompose the succedent (product, slash,
  diamond and box-down introductions);
* left rules that rewrite a formula leaf inside the antecedent (the
  eliminations, rendered sequent-style: a slash functor next to its argument
  substructure collapses to its result, a diamond leaf unfolds to a
  structural diamond, and so on);
* the structural postulates: Root (the unit 1 is a right identity for the
  c mode), Left and Right (rotations between surface and continuation mode,
  Right demanding a value diamond on the constituent it moves), T (any
  substructure may be quoted under a value diamond), K' (two adjacent value
  diamonds merge), and Unquote (a value diamond over a u-diamond cancels, on
  either side of the turnstile).

Backward search applies each of these as an antecedent (or succedent)
rewrite.  No cap bounds it: T, the only rule that grows a structure, is
always fused into the move that consumes its quote, and the sequents that
the moves reach from a goal are then finite in number (the argument is in
``prove``).  So a search explores them all, and an empty result is a
refutation; only a wall-clock deadline can cut a search short, and the
result says when one did.  A search returns one derivation per scope
reading it finds, up to a cap on readings.  A goal whose surface tree cannot
reduce to its clause type over the words' skeleton types is refuted before
any search (``_skeleton_refutes``).

The search proceeds in cycles (isolate a scope-taking functor on the
continuation spine, collapse it, reassemble, cancel the quoting diamonds)
and the moves offered follow that normal form, which keeps the reachable
sequent graph finite and small (details at the move generator and in
``prove``).  Five economies matter, all invisible in the derivations
returned, which always consist of single honest rule applications:

* T is never applied blindly; it is fused into the moves that consume the
  diamond it creates (Right rotations, K' merges, value-diamond introduction,
  value box-down elimination).  Any derivation can be normalized into this
  shape by commuting each T down to its consumer.
* Root introduces its unit at the antecedent root only, one live context at
  a time; rotated contexts still reach every position because rotation
  happens before and after each collapse of a continuation functor.
* Surface-mode logic, diamond merging and succedent decomposition wait until
  the antecedent is continuation-free; while a context is live only the
  spine moves run.
* Root→, Left→ and Right→ move the focus only toward a scope-taker that
  no quote freezes: into a constituent that holds a c-mode formula outside
  every unary node.  While a context is live no move enters a unary node,
  so nothing fires at a focus with no such formula, and a derivation
  could only climb back out of it, undoing the descent or the Root→ and
  leaving quotes that the fused T adds where they are consumed (the
  argument is in ``prove``).
* The succedent-side Unquote is offered only at a quoted root, an
  antecedent that is itself a value diamond, which the value-diamond
  introduction consumes at once.  Anywhere else the steps between the
  Unquote and that consumer read the antecedent alone, so they can come
  first (the argument is in ``prove``).

``prove`` derives, by a plain fixpoint over the reachable sequent graph,
every scope trace of every node with the first witness of each, and then
extracts one derivation per scope reading of the goal by following those
witnesses; see the commentary on ``prove``.  Four more economies concern
the cost of a search, not its space.  They leave every verdict and reading
as it is, and the derivations of the first search on a table too:

* The graph's solved nodes outlive one search (tabled deduction).  A
  search derives its pairs straight into its table's solved map, and a
  later search seeds a solved node's traces instead of expanding it
  again, and so never asks for its moves.  A search its deadline cuts
  empties that map, as a tabling engine discards its incomplete tables
  on an abort (``MoveTable``).
* A sequent's moves are the succedent's moves, then the antecedent's one
  list.  Every move but the axiom, the right rules and the
  succedent-side Unquote depends on the antecedent alone, and a move's
  step names a rule and sites, no structure, so the table generates that
  list once per antecedent; a succedent the search reaches it under only
  gets its premises (``MoveTable``).  The sequent a fused T passes through
  is built only when a derivation is extracted (``_apply_step``).
* One walk generates an antecedent's list, site by site, dispatching
  once per site on the node's class and mode (``_walk``).  While a
  context is live it enters only the subtrees that hold a c-mode node and
  offers moves only at the c-mode sites; no other site offers a move
  then.
* The cyclic garbage collector is paused while ``prove`` runs, and
  ``parse_sentence`` pauses it across all of its ``prove`` calls.  The
  search creates no reference cycles, so reference counting frees all it
  drops, and the collector would only rescan the live graph to find
  nothing.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .core import (
    Atom, Bin, BoxDown, Dia, FLeaf, Formula, Over, Product, Sequent,
    Structure, Un, Under, UnitLeaf, UNIT_LEAF, BINARY_MODES, CMODE, DEFAULT,
    UMODE, UNARY_MODES, VALUE,
    parse_formula, print_formula,
)

Site = tuple[int, ...]


# ---------------------------------------------------------------------------
# Rule names

@dataclass(frozen=True)
class RuleName:
    """A rule tag plus its mode parameter ("" for unparameterized rules)."""

    tag: str
    mode: str = ""

    def __str__(self) -> str:
        if self.mode:
            return f"{self.tag}({self.mode})"
        return self.tag

    @staticmethod
    def parse(text: str) -> "RuleName":
        if text.endswith(")") and "(" in text:
            tag, mode = text[:-1].split("(", 1)
            return RuleName(tag, mode)
        return RuleName(text)


AXIOM = RuleName("Axiom")
LEX = RuleName("Lex")
ROOT_F = RuleName("Root→")
ROOT_B = RuleName("Root←")
LEFT_F = RuleName("Left→")
LEFT_B = RuleName("Left←")
RIGHT_F = RuleName("Right→")
RIGHT_B = RuleName("Right←")
T_RULE = RuleName("T")
KPRIME = RuleName("K′")
UNQUOTE_ANTE = RuleName("UnquoteAnte")
UNQUOTE_SUCC = RuleName("UnquoteSucc")
# the logical rules, by the mode they carry
PROD_R = {mode: RuleName("ProdR", mode) for mode in BINARY_MODES}
OVER_R = {mode: RuleName("OverR", mode) for mode in BINARY_MODES}
UNDER_R = {mode: RuleName("UnderR", mode) for mode in BINARY_MODES}
DIA_R = {mode: RuleName("DiaR", mode) for mode in UNARY_MODES}
BOX_DOWN_R = {mode: RuleName("BoxDownR", mode) for mode in UNARY_MODES}
OVER_L = {mode: RuleName("OverL", mode) for mode in BINARY_MODES}
UNDER_L = {mode: RuleName("UnderL", mode) for mode in BINARY_MODES}
PROD_L = {mode: RuleName("ProdL", mode) for mode in BINARY_MODES}
DIA_L = {mode: RuleName("DiaL", mode) for mode in UNARY_MODES}
BOX_DOWN_L = {mode: RuleName("BoxDownL", mode) for mode in UNARY_MODES}

_DISPLAY_BASE = {
    "ProdR": "⊗{m}I", "ProdL": "⊗{m}E",
    "OverR": "/{m}I", "OverL": "/{m}E",
    "UnderR": "\\{m}I", "UnderL": "\\{m}E",
    "DiaR": "◇{m}I", "DiaL": "◇{m}E",
    "BoxDownR": "□↓{m}I", "BoxDownL": "□↓{m}E",
    "Root→": "Root", "Root←": "Root",
    "Left→": "Left", "Left←": "Left",
    "Right→": "Right", "Right←": "Right",
    "UnquoteAnte": "Unquote", "UnquoteSucc": "Unquote",
    "Axiom": "Axiom", "Lex": "Lex", "T": "T", "K′": "K′",
}


def display_label(rule: RuleName) -> str:
    """The display label used in rendered proof trees."""
    base = _DISPLAY_BASE.get(rule.tag, rule.tag)
    return base.replace("{m}", rule.mode)


# ---------------------------------------------------------------------------
# Derivations

@dataclass(frozen=True)
class Derivation:
    """One rule application: its conclusion, the premise derivations, and the
    antecedent position the rule worked at (() for succedent rules)."""

    rule: RuleName
    conclusion: Sequent
    premises: Tuple["Derivation", ...] = ()
    site: Site = ()

    def walk(self) -> Iterator["Derivation"]:
        """Every node of the derivation in preorder: a node, then each of
        its premises' subtrees left to right.  One explicit stack rather
        than nested generators, whose every yield passes up the chain."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.premises))

    def render(self, indent: int = 0) -> str:
        lines = ["%s%s   [%s]" % ("  " * indent, self.conclusion,
                                  display_label(self.rule))]
        for p in self.premises:
            lines.append(p.render(indent + 1))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Budgets

@dataclass(frozen=True)
class SearchBudget:
    """How much one proof search returns: ``max_derivations`` caps the
    scope readings of one goal, with one derivation each.  Nothing caps the
    search itself, which ends on its own (see ``prove``)."""

    max_derivations: int = 16

    def __post_init__(self):
        if self.max_derivations < 1:
            raise ValueError("max_derivations must be at least 1")


@dataclass
class SearchResult:
    """Derivations found, and whether the wall-clock deadline cut the
    search (``timed_out``); a search it did not cut is complete."""

    derivations: List[Derivation]
    timed_out: bool = False

    @property
    def budget_exhausted(self) -> bool:
        """Whether the search was cut short, which only its deadline can
        do now: the old name of ``timed_out``."""
        return self.timed_out


# ---------------------------------------------------------------------------
# Structure navigation

def subtree(st: Structure, site: Site) -> Structure:
    for step in site:
        if isinstance(st, Bin):
            st = st.left if step == 0 else st.right
        elif isinstance(st, Un):
            st = st.body
        else:
            raise IndexError(f"no subtree at {site}")
    return st


def replace(st: Structure, site: Site, new: Structure) -> Structure:
    if not site:
        return new
    step, rest = site[0], site[1:]
    if isinstance(st, Bin):
        if step == 0:
            return Bin(st.mode, replace(st.left, rest, new), st.right)
        return Bin(st.mode, st.left, replace(st.right, rest, new))
    if isinstance(st, Un):
        return Un(st.mode, replace(st.body, rest, new))
    raise IndexError(f"no subtree at {site}")


# ---------------------------------------------------------------------------
# Single-step structural rewrites (shared by search and validation)

def _root_fwd(st: Structure) -> Optional[Structure]:
    return Bin(CMODE, st, UNIT_LEAF)


def _root_bwd(st: Structure) -> Optional[Structure]:
    if isinstance(st, Bin) and st.mode == CMODE and isinstance(st.right, UnitLeaf):
        return st.left
    return None


def _left_fwd(st: Structure) -> Optional[Structure]:
    if (isinstance(st, Bin) and st.mode == CMODE
            and isinstance(st.left, Bin) and st.left.mode == DEFAULT):
        inner = st.left
        return Bin(CMODE, inner.left, Bin(DEFAULT, inner.right, st.right))
    return None


def _left_bwd(st: Structure) -> Optional[Structure]:
    if (isinstance(st, Bin) and st.mode == CMODE
            and isinstance(st.right, Bin) and st.right.mode == DEFAULT):
        inner = st.right
        return Bin(CMODE, Bin(DEFAULT, st.left, inner.left), inner.right)
    return None


def _right_fwd(st: Structure) -> Optional[Structure]:
    if (isinstance(st, Bin) and st.mode == CMODE
            and isinstance(st.left, Bin) and st.left.mode == DEFAULT
            and isinstance(st.left.left, Un) and st.left.left.mode == VALUE):
        inner = st.left
        return Bin(CMODE, inner.right, Bin(DEFAULT, st.right, inner.left))
    return None


def _right_bwd(st: Structure) -> Optional[Structure]:
    if (isinstance(st, Bin) and st.mode == CMODE
            and isinstance(st.right, Bin) and st.right.mode == DEFAULT
            and isinstance(st.right.right, Un) and st.right.right.mode == VALUE):
        inner = st.right
        return Bin(CMODE, Bin(DEFAULT, inner.right, st.left), inner.left)
    return None


def _t_rewrite(st: Structure) -> Optional[Structure]:
    return Un(VALUE, st)


def _kprime(st: Structure) -> Optional[Structure]:
    if (isinstance(st, Bin) and st.mode == DEFAULT
            and isinstance(st.left, Un) and st.left.mode == VALUE
            and isinstance(st.right, Un) and st.right.mode == VALUE):
        return Un(VALUE, Bin(DEFAULT, st.left.body, st.right.body))
    return None


def _unquote_ante(st: Structure) -> Optional[Structure]:
    if (isinstance(st, Un) and st.mode == VALUE
            and isinstance(st.body, Un) and st.body.mode == UMODE):
        return st.body
    return None


# ---------------------------------------------------------------------------
# Search move generation

# A scope trace: the worded continuation-functor firings of a derivation
# (``scope_firing``), outermost first.
Trace = tuple[tuple[str, int | None], ...]

# A move is (step, premises, trace).  Its step, (rule, site, quote), applies
# rule at site of the sequent the move sits at; quote is None, or the site
# of the T fused in front of the rule, which quotes the subtree there under
# a value diamond for the rule to consume.  Every fused T is followed by its
# consumer alone, so a step says all that a move applies, and names no
# structure: ``_apply_step`` builds the sequent a fused T passes through
# when a derivation is extracted.  premises are the rule's subgoals, and
# trace is its scope firing as a 1-tuple, or ().
Step = tuple[RuleName, Site, Site | None]
Move = tuple[Step, tuple[Sequent, ...], Trace]

# An antecedent move is a move that reads the antecedent alone, with the
# succedent left out: (step, main, minor, trace), where main is the
# antecedent of the premise that keeps the conclusion's succedent and minor
# is the other premise, a whole sequent, or None.  Its step serves every
# succedent as it is; only the main premise takes one.
AnteMove = tuple[Step, Structure, Sequent | None, Trace]

# The first witness of a (node, trace) pair: the move that derived it and
# each premise's part of the trace, in premise order.
Witness = tuple[Move, tuple[Trace, ...]]


def _axiom_move(seq: Sequent) -> Optional[Move]:
    ant = seq.antecedent
    if isinstance(ant, FLeaf) and ant.formula == seq.succedent:
        rule = LEX if ant.word is not None else AXIOM
        return (rule, (), None), (), ()
    return None


def _right_moves(seq: Sequent) -> List[Move]:
    """The moves at ``seq`` that read its succedent: the right rules and
    the succedent-side Unquote."""
    out: List[Move] = []
    ant, succ = seq.antecedent, seq.succedent
    if isinstance(succ, Product):
        if isinstance(ant, Bin) and ant.mode == succ.mode:
            out.append(((PROD_R[succ.mode], (), None),
                        (Sequent(ant.left, succ.left),
                         Sequent(ant.right, succ.right)), ()))
    elif isinstance(succ, Over):
        goal = Sequent(Bin(succ.mode, ant, FLeaf(succ.argument)), succ.result)
        out.append(((OVER_R[succ.mode], (), None), (goal,), ()))
    elif isinstance(succ, Under):
        goal = Sequent(Bin(succ.mode, FLeaf(succ.argument), ant), succ.result)
        out.append(((UNDER_R[succ.mode], (), None), (goal,), ()))
    elif isinstance(succ, Dia):
        rule = DIA_R[succ.mode]
        if isinstance(ant, Un) and ant.mode == succ.mode:
            out.append(((rule, (), None), (Sequent(ant.body, succ.body),),
                        ()))
        elif succ.mode == VALUE:
            # fuse a T on the whole antecedent with the diamond introduction
            out.append(((rule, (), ()), (Sequent(ant, succ.body),), ()))
        elif (succ.mode == UMODE and isinstance(ant, Un)
              and ant.mode == VALUE and not ant.has_cmode_node):
            # the succedent-side Unquote, at a quoted root only, where the
            # value-diamond introduction takes the new diamond off at once
            out.append(((UNQUOTE_SUCC, (), None),
                        (Sequent(ant, Dia(VALUE, succ)),), ()))
    elif isinstance(succ, BoxDown):
        # box-down introduction applies to any antecedent at all, so it waits
        # for the pause between continuation cycles; decomposing while a
        # c-node is live only multiplies interleavings of the same proofs
        if not ant.has_cmode_node:
            goal = Sequent(Un(succ.mode, ant), succ.body)
            out.append(((BOX_DOWN_R[succ.mode], (), None), (goal,), ()))
    return out


def _plain(out: List[AnteMove], ant: Structure, site: Site, rule: RuleName,
           new: Structure) -> None:
    """Add the move that rewrites the subtree at ``site`` to ``new``."""
    out.append(((rule, site, None), replace(ant, site, new), None, ()))


def _quoting(out: List[AnteMove], ant: Structure, site: Site,
             node: Structure, below: Site, rule: RuleName,
             rewrite: Callable[[Structure], Optional[Structure]]) -> None:
    """Add the move that applies ``rewrite`` to ``node``, the subtree at
    ``site``, which needs a value diamond at ``below`` it: the rewrite
    alone if one is there, else after a T that quotes that subtree, fused
    in front of the rewrite at ``site + below``."""
    target = subtree(node, below)
    if isinstance(target, Un) and target.mode == VALUE:
        _plain(out, ant, site, rule, rewrite(node))
        return
    if target.has_unit:
        # the unit only ever exists to be consumed by Root; quoting a
        # context that contains it leads nowhere
        return
    new = rewrite(replace(node, below, Un(VALUE, target)))
    assert new is not None
    out.append(((rule, site, site + below), replace(ant, site, new), None,
                ()))


def _antecedent_moves(ant: Structure) -> List[AnteMove]:
    """The moves at the antecedent ``ant``: the part of a sequent's moves
    that does not depend on its succedent, in the order ``_walk`` visits
    the sites."""
    out: List[AnteMove] = []
    _walk(ant, ant, (), ant.has_cmode_node, out)
    return out


def _walk(ant: Structure, node: Structure, site: Site, live: bool,
          out: List[AnteMove]) -> None:
    """Add the moves at the sites of ``ant`` in ``node``, its subtree at
    ``site``, with T fused into its consumers: children before parents,
    left to right, one dispatch per site on the node's class and mode, and
    at each site its left moves, then its structural moves.

    The walk stops at unary nodes: a quoted (or otherwise boxed) subtree is
    opaque until the wrapper is consumed, so moves strictly inside it
    commute to after its removal.  While a context is ``live`` it enters
    only the binary nodes that hold a c-mode node and offers moves only at
    c-mode nodes, since no other site offers one then (see
    ``MoveTable.moves_of``)."""
    if isinstance(node, Bin):
        a, b, mode = node.left, node.right, node.mode
        if not live or isinstance(a, Bin) and a.has_cmode_node:
            _walk(ant, a, site + (0,), live, out)
        if not live or isinstance(b, Bin) and b.has_cmode_node:
            _walk(ant, b, site + (1,), live, out)
        if live and mode != CMODE:
            return
        if (isinstance(a, FLeaf) and isinstance(a.formula, Over)
                and a.formula.mode == mode):
            f = a.formula
            # a c-mode functor with a word takes scope (``scope_firing``)
            firing = () if mode != CMODE or a.word is None \
                else ((a.word, a.pos),)
            out.append(((OVER_L[mode], site, None),
                        replace(ant, site, FLeaf(f.result)),
                        Sequent(b, f.argument), firing))
        if (isinstance(b, FLeaf) and isinstance(b.formula, Under)
                and b.formula.mode == mode):
            f = b.formula
            out.append(((UNDER_L[mode], site, None),
                        replace(ant, site, FLeaf(f.result)),
                        Sequent(a, f.argument), ()))
        if mode == CMODE:
            if isinstance(b, UnitLeaf):
                _plain(out, ant, site, ROOT_B, _root_bwd(node))
            # Left→ and Right→ descend the focus into a.left and a.right;
            # they go only toward a scope-taker that no unary node freezes,
            # since any other focus can only climb back out (see ``prove``)
            down = isinstance(a, Bin) and a.mode == DEFAULT
            up = isinstance(b, Bin) and b.mode == DEFAULT
            if down and a.left.has_open_cmode_formula:
                _plain(out, ant, site, LEFT_F, _left_fwd(node))
            if up:
                _plain(out, ant, site, LEFT_B, _left_bwd(node))
            if down and a.right.has_open_cmode_formula:
                _quoting(out, ant, site, node, (0, 0), RIGHT_F, _right_fwd)
            if up:
                _quoting(out, ant, site, node, (1, 1), RIGHT_B, _right_bwd)
        else:
            if not (site or ant.has_unit) and ant.has_open_cmode_formula:
                # Root introduces its unit at the spine only, one context at
                # a time (no context is live at a surface-mode site), and
                # only where a c-mode functor outside every quote could
                # consume the context; a formula leaf's root does the same
                _plain(out, ant, site, ROOT_F, _root_fwd(ant))
            if isinstance(a, Un) and a.mode == VALUE:
                _quoting(out, ant, site, node, (1,), KPRIME, _kprime)
            elif isinstance(b, Un) and b.mode == VALUE:
                _quoting(out, ant, site, node, (0,), KPRIME, _kprime)
            # with neither side quoted, a single T on the whole pair reaches
            # the same sequent in fewer steps, via the consumer of that
            # diamond
    elif live:
        return
    elif isinstance(node, FLeaf):
        f = node.formula
        if isinstance(f, Dia):
            _plain(out, ant, site, DIA_L[f.mode], Un(f.mode, FLeaf(f.body)))
        elif isinstance(f, Product):
            _plain(out, ant, site, PROD_L[f.mode],
                   Bin(f.mode, FLeaf(f.left), FLeaf(f.right)))
        elif isinstance(f, BoxDown) and f.mode == VALUE:
            # needs a quoting step before the value box-down can be dropped
            out.append(((BOX_DOWN_L[VALUE], site, site),
                        replace(ant, site, FLeaf(f.body)), None, ()))
        if not site and f.has_cmode:  # Root, as at a surface-mode root
            _plain(out, ant, site, ROOT_F, _root_fwd(ant))
    elif isinstance(node, Un):
        body = node.body
        if (isinstance(body, FLeaf) and isinstance(body.formula, BoxDown)
                and body.formula.mode == node.mode):
            _plain(out, ant, site, BOX_DOWN_L[node.mode],
                   FLeaf(body.formula.body))
        new = _unquote_ante(node)
        if new is not None:
            _plain(out, ant, site, UNQUOTE_ANTE, new)


def _apply_step(seq: Sequent, step: Step,
                premises: Tuple[Derivation, ...]) -> Derivation:
    """The derivation a move at ``seq`` builds over ``premises``: its rule
    at its site, under the T its step fuses in front of the rule, if any.
    The one place that builds the sequent such a T passes through."""
    rule, site, quote = step
    if quote is None:
        return Derivation(rule, seq, premises, site)
    ant = seq.antecedent
    quoted = Sequent(replace(ant, quote, Un(VALUE, subtree(ant, quote))),
                     seq.succedent)
    consumer = Derivation(rule, quoted, premises, site)
    return Derivation(T_RULE, seq, (consumer,), quote)


# ---------------------------------------------------------------------------
# The prover
#
# The search runs over the finite graph of the sequents reachable from the
# goal (``prove`` argues that it is finite) in three exact phases:
#
#   1. explore: walk the graph from the goal, expanding each node once:
#      the move table assembles its moves (``MoveTable.moves_of``), and
#      they go into the index phase 2 reads, each move under each of its
#      premises, for the length of the search.  A node that an earlier
#      call on the table solved is not expanded: its pairs seed phase 2
#      instead;
#   2. derive: find, per node, every scope trace (the sequence of worded
#      continuation-functor firings a derivation performs, outermost first)
#      of some derivation of it, and the first witness of each, straight
#      into the table's solved map, the one store of derived pairs.  A
#      deadline that passes in this phase or the first empties that map;
#   3. extract: per goal trace, shortest first and up to max_derivations
#      of them, the derivation its witnesses spell out (``_extract``),
#      with no clock read.  A derivation's reading is its trace, so each
#      reading is witnessed once, and its rule-order variants (a sentence
#      can have astronomically many derivations of a single reading) are
#      never built.
#
# Phase 2 is a plain fixpoint, as in agenda-based deduction (Shieber,
# Schabes & Pereira, *Principles and Implementation of Deductive Parsing*,
# 1995).  Its items are (node, trace) pairs, and its worklist is one list,
# read in append order and seeded with the axioms and the solved nodes'
# pairs in the order phase 1 meets them.  A pair enters the worklist once,
# when it is first derived, and records its witness: the move that derived
# it and each premise's part of the trace; a seeded pair keeps the witness
# an earlier call recorded.  A one-premise move derives its conclusion from
# each pair of its premise; a two-premise move joins each pair of one
# premise with every trace the other premise has derived so far (a solved
# premise has all of its traces from the start), and a trace the other
# premise derives later joins from its side.  Every witness names premise
# pairs derived strictly before it.

def scope_firing(rule: RuleName, antecedent: Structure,
                 site: Site) -> Optional[Tuple[str, Optional[int]]]:
    """The (word, position) a rule application at ``site`` of
    ``antecedent`` takes scope for: an elimination of a continuation-mode
    functor whose leaf carries a word.  None for every other step."""
    if rule.tag != "OverL" or rule.mode != CMODE:
        return None
    node = subtree(antecedent, site)
    assert isinstance(node, Bin)
    leaf = node.left
    if isinstance(leaf, FLeaf) and leaf.word is not None:
        return leaf.word, leaf.pos
    return None


class MoveTable:
    """What the searches on one tree share: the moves of each antecedent
    reached so far, and the scope traces of every sequent solved so far.

    The table keeps across calls what a later call reads: a search
    assembles a node's moves when it expands the node (``moves_of``), and
    keeps them and its index of parents to itself.  Any search adds to
    ``halves``, cut or not.  ``solved`` maps the key of every node a search
    reached to its ``{trace: witness}`` map, empty for a node that derives
    nothing.  A search derives into it as it goes, so the map of a node it
    is still deriving is partial; once the search has derived all its
    pairs, a node's map depends on the sequent alone.  A search cut by its
    deadline empties ``solved``, partial maps and earlier searches' maps
    alike (a tabling engine discards its incomplete tables on an abort:
    Chen & Warren, *Tabled Evaluation with Delaying for General Logic
    Programs*, 1996), so between calls every map it holds is complete.  A
    later search seeds a solved node's pairs instead of expanding it again
    (``prove`` argues that this keeps every reading).  ``parse_sentence``
    gives each bracketing its own table, shared by that bracketing's goal
    types, and drops it before the next: the goals over one tree reach
    largely the same sequents, while a table spanning bracketings would
    hold the whole sentence's graph for little further sharing.

    A sequent's moves are the succedent's moves, then the antecedent's one
    list.  The axiom, the right moves and the succedent-side Unquote read
    the succedent and are generated per sequent.  Every other move depends
    on the antecedent alone (``_antecedent_moves``), and the search reaches
    one antecedent under several succedents (``s0``, ``s-``, ``<>s0``,
    ``<p>s0``), so its list is generated once per antecedent and kept in
    ``halves`` under its ``key``.  A step names a rule and sites only (see
    ``Move``), so assembling a sequent builds just the list's main
    premises under its succedent, and every sequent over the antecedent
    shares each move's step tuple and minor premise.  Each move carries
    its scope trace, which depends on the move alone (see ``Move``).

    Premises are built, not interned: a search keys every node by
    ``key``, so two equal premises need not be one object, and most
    premises a search builds are new, so a lookup before each would mostly
    miss.
    """

    __slots__ = ("halves", "solved")

    def __init__(self) -> None:
        self.halves: Dict[str, List[AnteMove]] = {}
        self.solved: Dict[str, Dict[Trace, Witness]] = {}

    def moves_of(self, seq: Sequent) -> List[Move]:
        """All backward moves at ``seq``, in fixed order: the axiom alone,
        if it applies; otherwise the succedent's moves (``_right_moves``),
        then the antecedent's one list, site by site.  Each call assembles
        them anew; only the antecedent's list is kept (``halves``).

        The moves follow the search's cycles (no gate discards a
        normal-form derivation).  While a continuation node is live, only
        the spine moves at c-mode nodes are offered: rotations, Root and
        collapses of c-mode functors.  Everything else waits for a
        continuation-free antecedent.  Root→, Left→ and Right→ make a
        constituent the focus only where it holds a c-mode formula outside
        every unary node, a scope-taker that no quote freezes, and the
        succedent-side Unquote is offered only at a quoted root: an
        antecedent that is itself a value diamond, so that the diamond
        introduction cancels the new diamond at once (``prove`` says why
        these gates lose nothing).
        """
        axiom = _axiom_move(seq)
        if axiom is not None:
            # Nothing below a closed leaf can introduce a scope-taking step,
            # so alternative unfoldings of it would only duplicate
            # derivations.
            return [axiom]
        ant = seq.antecedent
        ante_moves = self.halves.get(ant.key)
        if ante_moves is None:
            ante_moves = self.halves[ant.key] = _antecedent_moves(ant)
        out = _right_moves(seq)
        # each antecedent move keeps its step and its minor premise and gets
        # its main premise under the succedent
        succ = seq.succedent
        for step, main, minor, trace in ante_moves:
            first = Sequent(main, succ)
            out.append((step, (first,) if minor is None
                        else (first, minor), trace))
        return out


# ---------------------------------------------------------------------------
# Skeleton refutation

def _skeleton(f: Formula) -> Optional[Formula]:
    """``f`` with its unary modes erased, so that ``s0``, ``s+`` and ``s-``
    all become ``s``; None if ``f`` has a product, the unit, a c-mode
    connective or a slash whose argument is not atomic."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, (Dia, BoxDown)):
        return _skeleton(f.body)
    if isinstance(f, (Over, Under)) and f.mode == DEFAULT:
        result, argument = _skeleton(f.result), _skeleton(f.argument)
        if result is None or not isinstance(argument, Atom):
            return None
        if isinstance(f, Over):
            return Over(DEFAULT, result, argument)
        return Under(DEFAULT, argument, result)
    return None


def _leaf_skeleton(f: Formula) -> Optional[Formula]:
    """The skeleton of a leaf formula: a scope-taker ``Out /c (np \\c In)``
    whose ``Out`` and ``In`` have one skeleton stands for its in-situ
    argument ``np``; any other c-mode type has none."""
    if isinstance(f, Over) and f.mode == CMODE:
        context = f.argument
        if not (isinstance(context, Under) and context.mode == CMODE):
            return None
        out, inner = _skeleton(f.result), _skeleton(context.result)
        in_situ = _skeleton(context.argument)
        if out is None or out != inner or not isinstance(in_situ, Atom):
            return None
        return in_situ
    return _skeleton(f)


def _reductions(st: Structure) -> Optional[FrozenSet[Formula]]:
    """The skeletons a plain surface tree reduces to by left and right
    application; None if ``st`` has a c-mode node, the unit or a structural
    diamond, or a leaf without a skeleton.  Kept on a formula leaf or
    surface-mode node once computed (``Structure.skeleton_reductions``)."""
    try:
        return st.skeleton_reductions
    except AttributeError:
        pass
    reductions: Optional[FrozenSet[Formula]] = None
    if isinstance(st, FLeaf):
        skeleton = _leaf_skeleton(st.formula)
        if skeleton is not None:
            reductions = frozenset((skeleton,))
    elif isinstance(st, Bin) and st.mode == DEFAULT:
        left, right = _reductions(st.left), _reductions(st.right)
        if left is not None and right is not None:
            reductions = frozenset(
                [f.result for f in left
                 if isinstance(f, Over) and f.argument in right]
                + [f.result for f in right
                   if isinstance(f, Under) and f.argument in left])
    else:
        return None
    st.skeleton_reductions = reductions
    return reductions


def _skeleton_refutes(goal: Sequent) -> bool:
    """True when ``goal``'s skeleton shows that no derivation exists.

    The check covers a goal whose antecedent is a plain surface tree
    (formula leaves under surface-mode nodes), every leaf of which has a
    skeleton, and whose succedent's skeleton is an atom.  It refutes when
    the tree, over its leaves' skeletons, cannot reduce to that atom by left
    and right application.  Outside this fragment it abstains (returns
    False) and the search decides: for a c-mode node, unit or structural
    diamond in the antecedent, a product, a c-mode type other than a
    scope-taker, a higher-order slash argument, a scope-taker whose ``Out``
    and ``In`` differ in skeleton, or a non-atomic goal skeleton.

    Why a refutation is exact.  Read every sequent the search reaches as a
    sequent of the non-associative Lambek calculus NL over skeletons:

    * a c-mode node ``A *c C`` plugs ``A`` into the context ``C``, a zipper
      whose empty context is the unit ``1``: the continuation reading of
      Barker & Shan, *Continuations and Natural Language* (2014).  Read the
      structure as an unrooted tree rooted at its unit.  Root, Left and
      Right move only the c-mode edge and keep each surface node's three
      neighbours in their cyclic order, so the plugged tree stays as it
      is.  The search keeps one live context, so there is one unit, and a
      branch that moves it into a slash's argument never closes: only
      Root removes a unit;
    * T, K', Unquote and the diamond and box-down rules become identities
      once the unary modes are erased, and a surface-mode elimination is
      the same elimination in NL;
    * the c-mode elimination of a scope-taker at ``Γ[Q *c C]`` has the
      premises ``Γ[Out] ⊢ G`` and ``C ⊢ np \\c In``, read as
      ``C[np] ⊢ In``.  ``Out`` and ``In`` have one skeleton ``S``, so a
      cut of ``C[np] ⊢ S`` into ``Γ[S] ⊢ G`` gives ``Γ[C[np]] ⊢ G``, the
      reading of the conclusion.  Cut is admissible in NL.

    So a derivable sequent reads as an NL-derivable one.  On a fixed tree
    whose types are first order and whose goal is an atom, every subgoal of
    a cut-free NL derivation is an atom, so only the eliminations apply,
    and they are the applications tried here.  No search can find a
    derivation: the refutation is exact.  The check makes one pass over
    each distinct subtree: a subtree keeps its reductions
    (``Structure.skeleton_reductions``), so the trees of one sentence,
    which share each span's subtrees, and both goals of a tree reduce each
    of them once.
    """
    target = _skeleton(goal.succedent)
    if not isinstance(target, Atom):
        return False
    reductions = _reductions(goal.antecedent)
    return reductions is not None and target not in reductions


def prove(goal: Sequent, budget: Optional[SearchBudget] = None,
          deadline: Optional[float] = None,
          table: Optional[MoveTable] = None) -> SearchResult:
    """Search backward for derivations of ``goal``.

    Returns one locally-valid derivation per scope reading found, for up
    to ``budget.max_derivations`` readings, in a deterministic order:
    shorter scope orders first, and scope orders of one length by their
    (word, position) pairs.  An empty list means that ``goal`` has no
    derivation.  ``deadline`` (seconds, wall clock) optionally aborts the
    search, which reads the clock before it expands each node and before
    it reads each derived pair; an aborted search empties the table's
    solved map and reports no derivations and ``timed_out``.  Extraction
    reads no clock: it follows witnesses, one step per node of the
    derivations it returns, so once phase 2 ends the search completes.  A
    NaN ``deadline`` raises ValueError before any search, since no clock
    reading would ever pass it.  No ``budget`` means ``SearchBudget()``.

    A goal whose skeleton cannot reduce to its clause type is refuted
    before any search (``_skeleton_refutes``).  Every other goal is
    searched, over the sequent graph that the move table spans
    (``MoveTable.moves_of``), in the three phases described in the
    commentary that opens this section of the module.

    Why the search ends.  Phase 1 walks the sequents reachable from the
    goal, and there are finitely many of them.  Every formula of one is a
    subformula of a goal formula, or the ``◇v ◇u X`` that the
    succedent-side Unquote makes of a subformula ``◇u X``, and every word
    label is one of the goal's; so it is enough that the structures stay
    bounded in size.

    * Only decomposition and Root add ``Bin`` nodes and leaves.  A
      decomposition (a slash introduction, the product elimination) takes
      a connective off for what it adds.  Root adds a c-mode node and the
      unit only at an antecedent with no unit, and each step that takes
      the unit away (Root's inverse, or an elimination whose minor premise
      gets the context) takes a ``Bin`` node with it.  So Root adds one
      node and one leaf at most to any sequent.
    * Every unary node that T does not make takes a connective off (the
      diamond elimination, the box-down introduction).  T is never offered
      alone: it is fused into the move that consumes its quote (a Right
      rotation, a K′ merge, a value-diamond introduction, a value box-down
      elimination), and wraps a node that is not a value diamond.  No move
      enters a unary node's body (``_walk`` stops at ``Un``), so what T
      wrapped stays as it was until its diamond goes, and K′ merges two
      diamonds into one.  So on each chain of unary
      nodes the diamonds T made are no more than one plus the unary nodes
      that took a connective off.

    So the size of a reachable sequent is bounded by the goal's connectives
    and leaves, and the graph is finite.  Phase 2 derives each node and
    trace once, and a trace fires each worded continuation functor of the
    goal once at most, so phase 2 ends too.

    Why extraction ends.  Phase 3 follows the first witness of each pair,
    and every witness names premise pairs derived strictly before it, so no
    pair recurs below itself and every branch ends (``_extract``).  That
    holds across the calls on one table.  A cut call empties the solved
    map, so it holds only the pairs of this call and of earlier calls that
    completed.  A witness an earlier call derived names only that call's
    pairs or older ones, and every pair of an earlier call precedes all of
    this call's.  A derivation's reading is its trace (``extract_reading``
    reads the firings in preorder, the order in which phase 2 joins
    traces), so each reading found is returned once.

    An empty result is a refutation, given three premises.

    * Normal form, a claim not proved here: a derivation has one of the
      same scope trace in the normal form the move table offers (T fused
      into its consumers, Root at the root, surface moves last; see the
      module docstring).
    * The succedent-side Unquote at a quoted root, argued.  The table
      offers the premise ``Γ ⊢ ◇v ◇u X`` of ``Γ ⊢ ◇u X`` only when ``Γ`` is
      itself a value diamond, which ``DiaR(v)`` then takes off.  Take a
      derivation that unquotes at another continuation-free ``Γ``.  Above
      that step its main branch keeps the succedent ``◇v ◇u X`` through
      steps on the antecedent up to the right rule that removes the
      ``◇v`` (``DiaR(v)`` or the fused ``T+DiaR``, the only right rules
      such a succedent has).  Those steps read the antecedent alone, so
      each is a move under ``◇u X`` too, unless that sequent is an axiom,
      which closes the branch with the same trace: a derivation over one
      leaf fires nothing.  Move the Unquote up past them.  If the consumer
      is ``DiaR(v)``, the Unquote now stands at a quoted root; if it is
      ``T+DiaR``, the two cancel and both go.  The scope trace is the
      same.  From a continuation-free antecedent only Root, at the root,
      and the unfolding of a c-mode product make a c-mode node, so without
      c-mode products in the lexicon the quoted root is continuation-free
      as the gate asks; a lexicon with one is not covered.
    * The focus moves only toward a scope-taker that no quote freezes,
      argued in part.  Root→ takes ``Γ`` to ``Γ *c 1``, Left→ takes
      ``(A ∘ B) *c C`` to ``A *c (B ∘ C)`` and Right→ takes
      ``(◇A ∘ B) *c C`` to ``B *c (C ∘ ◇A)``; the table offers them only
      when the new focus, ``Γ``, ``A`` or ``B``, holds a c-mode formula at
      an open site, outside every unary node.  While a context is live, the
      antecedent's moves are those at its c-mode spine sites, and no right
      rule applies under a clause succedent; no such move enters a unary
      node, so a quoted scope-taker stays quoted until the cycle closes.
      Take a derivation that makes a constituent ``X`` with no open c-mode
      formula the focus.  Nothing collapses there, as ``X`` is no c-mode
      functor leaf and the context is no c-mode argument leaf, and each
      further descent goes into a part of ``X``, which has no open c-mode
      formula either.  After Left→ or Right→, Root's inverse cannot close
      the cycle: it needs the context to be the unit alone, and the context
      holds ``X``'s sibling.  So before anything fires or the cycle closes,
      the derivation climbs back out of ``X``.  If every climb inverts the
      descent it follows (Left← after Left→, Right← after Right→), the
      excursion ends at the sequent it started from, except for the quotes
      that Right→ put on the siblings it passed.  Drop the excursion, and
      commute each of those T steps down to the step that consumes its
      quote, as the normal form does: the scope trace is the same.  After
      Root→ the context is the unit, which no rotation takes apart, so
      only Root← can undo it, and the same argument drops the excursion
      from Root→ to that Root←.
      Not covered, and a claim: an excursion that climbs out in the other
      orientation, through Left← after Right→ or Right← after Left→, which
      takes the focus's sibling into the context and the unit into the
      focus.  The claim is that such a sequent adds no scope trace; a
      table that also offers every withheld descent and Root→ finds the
      same goal traces on every sentence tested.

    ``table`` is shared with other calls on the terms ``MoveTable``
    states; a call given none uses a private one.  A call derives into
    the table's solved map as it goes and empties the map if its deadline
    cuts it.  Calls on one table generate each antecedent's moves once
    among them, and none expands a sequent that an earlier call solved
    and left in the map.  Sharing keeps every verdict and reading: the
    nodes a completed search reaches are closed under premises, so each of
    them has every trace it can derive, and a later call that seeds those
    pairs derives the same traces as it would on its own.  The first goal
    on a table returns exactly what a fresh search returns.  A later goal
    returns the same readings in the same order, but a reading's
    derivation may be another rule-order variant of it, spelled out by the
    witnesses an earlier call chose.

    The cyclic garbage collector is paused for the call, and the caller's
    setting is restored on return.  This is safe because nothing the search
    builds forms a reference cycle: structures, sequents, moves, witnesses
    and derivations are acyclic, and the recursive extraction is a
    module-level function, not a closure that refers to itself through its
    own cell.
    Reference counting therefore frees everything the call drops, and a
    collection during the search could reclaim nothing; it would only
    rescan the growing graph.
    """
    if deadline is not None and math.isnan(deadline):
        raise ValueError("the deadline must be a number of seconds, not NaN")
    if _skeleton_refutes(goal):
        return SearchResult([])
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _search(goal, SearchBudget() if budget is None else budget,
                       deadline, MoveTable() if table is None else table)
    finally:
        if collecting:
            gc.enable()


def _search(goal: Sequent, budget: SearchBudget,
            deadline: Optional[float], table: MoveTable) -> SearchResult:
    """The three-phase search of ``prove`` on ``table``."""
    stop_at = None if deadline is None else time.monotonic() + deadline
    solved = table.solved
    # phase 1: walk the reachable sequent graph, expanding each node once,
    # and index each move under each of its premises; each axiom seeds
    # phase 2, and so does each pair of a node an earlier call solved,
    # which is not expanded again.  A node is reached when it first gets an
    # entry in ``deps``
    deps: Dict[str, List[Tuple[str, Move, int]]] = {goal.key: []}
    agenda: List[Tuple[str, Trace]] = []
    work = [goal]
    while work:
        if stop_at is not None and time.monotonic() >= stop_at:
            solved.clear()
            return SearchResult([], timed_out=True)
        seq = work.pop()
        key = seq.key
        by_trace = solved.get(key)
        if by_trace is not None:
            agenda.extend([(key, trace) for trace in by_trace])
            continue
        by_trace = solved[key] = {}
        for move in table.moves_of(seq):
            premises = move[1]
            if not premises and not by_trace:  # the axiom
                by_trace[()] = (move, ())
                agenda.append((key, ()))
            for slot, premise in enumerate(premises):
                if premise.key not in deps:
                    deps[premise.key] = []
                    work.append(premise)
                deps[premise.key].append((key, move, slot))

    # phase 2: derive every (node, trace) pair of the nodes phase 1
    # expanded, each once with its first witness.  A trace can be no longer
    # than the node's stock of worded continuation functors, so there are
    # finitely many pairs.  A list iterator reads the length at each step,
    # so it also yields the pairs appended meanwhile
    for key, trace in agenda:
        if stop_at is not None and time.monotonic() >= stop_at:
            solved.clear()
            return SearchResult([], timed_out=True)
        for parent, move, slot in deps[key]:
            premises, own = move[1], move[2]
            by_trace = solved[parent]
            if len(premises) == 1:
                new = own + trace
                if new not in by_trace:
                    by_trace[new] = (move, (trace,))
                    agenda.append((parent, new))
                continue
            # over a snapshot: a join may derive a pair at the other premise
            # itself
            for other in tuple(solved[premises[1 - slot].key]):
                parts = (trace, other) if slot == 0 else (other, trace)
                new = own + parts[0] + parts[1]
                if new not in by_trace:
                    by_trace[new] = (move, parts)
                    agenda.append((parent, new))

    # phase 3: one derivation per goal trace, shortest traces first, up to
    # the cap on readings
    traces = sorted(solved[goal.key], key=lambda trace: (len(trace), trace))
    return SearchResult([_extract(solved, goal, trace)
                         for trace in traces[:budget.max_derivations]])


def _extract(solved: Dict[str, Dict[Trace, Witness]], seq: Sequent,
             trace: Trace) -> Derivation:
    """Phase 3 of ``prove``: the derivation of ``seq`` with scope trace
    ``trace`` that phase 2's first witnesses spell out, the witness's move
    applied over each premise's extraction at its part of the trace.  It
    ends because every witness names premise pairs derived strictly before
    it.

    A module-level function rather than a nested one: a recursive closure
    refers to itself through its own cell, and that cycle would keep the
    call's whole sequent graph alive until the cyclic collector next ran.
    """
    (step, premises, _own), parts = solved[seq.key][trace]
    subs = []
    for premise, part in zip(premises, parts):
        subs.append(_extract(solved, premise, part))
    return _apply_step(seq, step, tuple(subs))


# ---------------------------------------------------------------------------
# Independent derivation checking

_STRUCTURAL_REWRITES = {
    "Root→": _root_fwd, "Root←": _root_bwd,
    "Left→": _left_fwd, "Left←": _left_bwd,
    "Right→": _right_fwd, "Right←": _right_bwd,
    "T": _t_rewrite, "K′": _kprime, "UnquoteAnte": _unquote_ante,
}


def _expected_premises(rule: RuleName, conclusion: Sequent,
                       site: Site) -> Optional[List[Sequent]]:
    """The premises the named rule demands at this conclusion/site, or None
    if the rule does not apply there."""
    ant, succ = conclusion.antecedent, conclusion.succedent
    tag, mode = rule.tag, rule.mode
    try:
        node = subtree(ant, site)
    except IndexError:
        return None

    if tag in ("Axiom", "Lex"):
        if site == () and isinstance(ant, FLeaf) and ant.formula == succ:
            return []
        return None

    if tag == "ProdR":
        if (site == () and isinstance(succ, Product) and succ.mode == mode
                and isinstance(ant, Bin) and ant.mode == mode):
            return [Sequent(ant.left, succ.left), Sequent(ant.right, succ.right)]
        return None
    if tag == "OverR":
        if site == () and isinstance(succ, Over) and succ.mode == mode:
            return [Sequent(Bin(mode, ant, FLeaf(succ.argument)), succ.result)]
        return None
    if tag == "UnderR":
        if site == () and isinstance(succ, Under) and succ.mode == mode:
            return [Sequent(Bin(mode, FLeaf(succ.argument), ant), succ.result)]
        return None
    if tag == "DiaR":
        if (site == () and isinstance(succ, Dia) and succ.mode == mode
                and isinstance(ant, Un) and ant.mode == mode):
            return [Sequent(ant.body, succ.body)]
        return None
    if tag == "BoxDownR":
        if site == () and isinstance(succ, BoxDown) and succ.mode == mode:
            return [Sequent(Un(mode, ant), succ.body)]
        return None

    if tag == "OverL":
        if (isinstance(node, Bin) and node.mode == mode
                and isinstance(node.left, FLeaf)
                and isinstance(node.left.formula, Over)
                and node.left.formula.mode == mode):
            f = node.left.formula
            return [Sequent(replace(ant, site, FLeaf(f.result)), succ),
                    Sequent(node.right, f.argument)]
        return None
    if tag == "UnderL":
        if (isinstance(node, Bin) and node.mode == mode
                and isinstance(node.right, FLeaf)
                and isinstance(node.right.formula, Under)
                and node.right.formula.mode == mode):
            f = node.right.formula
            return [Sequent(replace(ant, site, FLeaf(f.result)), succ),
                    Sequent(node.left, f.argument)]
        return None
    if tag == "DiaL":
        if (isinstance(node, FLeaf) and isinstance(node.formula, Dia)
                and node.formula.mode == mode):
            new = Un(mode, FLeaf(node.formula.body))
            return [Sequent(replace(ant, site, new), succ)]
        return None
    if tag == "ProdL":
        if (isinstance(node, FLeaf) and isinstance(node.formula, Product)
                and node.formula.mode == mode):
            f = node.formula
            new = Bin(mode, FLeaf(f.left), FLeaf(f.right))
            return [Sequent(replace(ant, site, new), succ)]
        return None
    if tag == "BoxDownL":
        if (isinstance(node, Un) and node.mode == mode
                and isinstance(node.body, FLeaf)
                and isinstance(node.body.formula, BoxDown)
                and node.body.formula.mode == mode):
            new = FLeaf(node.body.formula.body)
            return [Sequent(replace(ant, site, new), succ)]
        return None

    if tag == "UnquoteSucc":
        if site == () and isinstance(succ, Dia) and succ.mode == UMODE:
            return [Sequent(ant, Dia(VALUE, succ))]
        return None

    structural = _STRUCTURAL_REWRITES.get(tag)
    if structural is not None:
        new = structural(node)
        if new is None:
            return None
        return [Sequent(replace(ant, site, new), succ)]
    return None


def validate_derivation(d: Derivation) -> bool:
    """Audit a derivation: every node's conclusion must follow from its
    premises by its named rule at its named site."""
    expected = _expected_premises(d.rule, d.conclusion, d.site)
    if expected is None or len(expected) != len(d.premises):
        return False
    for want, premise in zip(expected, d.premises):
        if want != premise.conclusion:
            return False
        if not validate_derivation(premise):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization

def structure_to_dict(st: Structure) -> dict:
    if isinstance(st, FLeaf):
        d: dict = {"leaf": print_formula(st.formula)}
        if st.word is not None:
            d["word"] = st.word
        if st.pos is not None:
            d["pos"] = st.pos
        return d
    if isinstance(st, UnitLeaf):
        return {"unit": True}
    if isinstance(st, Bin):
        return {"bin": st.mode, "left": structure_to_dict(st.left),
                "right": structure_to_dict(st.right)}
    if isinstance(st, Un):
        return {"un": st.mode, "body": structure_to_dict(st.body)}
    raise TypeError(f"not a structure: {st!r}")


def structure_from_dict(d: dict) -> Structure:
    if "leaf" in d:
        return FLeaf(parse_formula(d["leaf"]), word=d.get("word"),
                     pos=d.get("pos"))
    if "unit" in d:
        return UNIT_LEAF
    if "bin" in d:
        return Bin(d["bin"], structure_from_dict(d["left"]),
                   structure_from_dict(d["right"]))
    if "un" in d:
        return Un(d["un"], structure_from_dict(d["body"]))
    raise ValueError(f"not a structure dict: {d!r}")


def sequent_to_dict(seq: Sequent) -> dict:
    return {"antecedent": structure_to_dict(seq.antecedent),
            "succedent": print_formula(seq.succedent)}


def sequent_from_dict(d: dict) -> Sequent:
    return Sequent(structure_from_dict(d["antecedent"]),
                   parse_formula(d["succedent"]))


def derivation_to_dict(d: Derivation) -> dict:
    return {"rule": str(d.rule),
            "site": list(d.site),
            "sequent": sequent_to_dict(d.conclusion),
            "premises": [derivation_to_dict(p) for p in d.premises]}


def derivation_from_dict(d: dict) -> Derivation:
    return Derivation(RuleName.parse(d["rule"]),
                      sequent_from_dict(d["sequent"]),
                      tuple(derivation_from_dict(p) for p in d["premises"]),
                      tuple(d["site"]))
