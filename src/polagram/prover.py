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
``prove``).  So a search ends on its own, with every trace of every
sequent it expands derived, and an empty result is a refutation; only a
wall-clock deadline can cut a search short, and the result says when one
did.  A search returns one derivation per scope
reading it finds, up to a cap on readings.  A goal whose surface tree cannot
reduce to its clause type over the words' skeleton types is refuted before
any search (``_skeleton_refutes``).

The search proceeds in cycles (isolate a scope-taking functor on the
continuation spine, collapse it, reassemble, cancel the quoting diamonds)
and the moves offered follow that normal form, which keeps the reachable
sequent graph finite and small (details at the move generator and in
``prove``).  Seven economies matter, all invisible in the derivations
returned, which always consist of single honest rule applications:

* A producer is fused into its consumer: a step whose only use is the one
  step after it is offered only together with that step, as one move.  T
  is never applied blindly; it is fused into the moves that consume the
  diamond it creates (Right rotations, K' merges, value-diamond
  introduction, value box-down elimination), and any derivation can be
  normalized into this shape by commuting each T down to its consumer.
  The succedent-side Unquote is fused into the value-diamond introduction
  that takes its new diamond off, and the box-down introduction at
  ``□m ◇m A`` into the diamond introduction that takes its diamond off,
  the one move at the sequent between them (unfused where the wrapped
  antecedent has a move of its own).
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
* Left← and Right← climb toward the unit: no move takes the unit into the
  focus, where nothing can fire or close the cycle until it leaves again.
  So the unit always stays in the context, and the one climb out of a
  focus inverts the descent into it (the argument is in ``prove``).
* The succedent-side Unquote is offered only at a quoted root, an
  antecedent that is itself a value diamond, which the value-diamond
  introduction consumes at once.  Anywhere else the steps between the
  Unquote and that consumer read the antecedent alone, so they can come
  first (the argument is in ``prove``).
* K′ merges quotes innermost first: the T fused into it never quotes a
  pair that holds an open quote, a value diamond outside every unary
  node.  The K′ moves inside the pair merge that quote first, and then
  the pair is a quote and K′ merges it with no T (the argument is in
  ``prove``).

``prove`` derives, in one agenda loop over the sequent graph it reaches
from the goal, every scope trace of every node it expands with the first
witness of each, and then extracts one derivation per scope reading of the
goal by following those witnesses; see the commentary on ``prove``.  Five
more economies concern the cost of a search, not its space.  They leave
every verdict, reading and goal trace as it is; all but the first leave
the derivations of the first search on a table as they are too:

* A move waits on one premise at a time, as an Earley item: the move
  and the traces of the premises before that one.  So a two-premise
  move's second premise is reached only once a pair of its first premise
  is fed to it (the demand rule).  A move whose first premise derives
  nothing derives nothing, so a sequent reached only as the second
  premise of such moves is never expanded; the sequents expanded still
  derive every trace they can (the induction is in ``prove``).  Pairs
  are derived in another order than in a search that expands the whole
  graph first, so a reading's witness may spell out another rule-order
  variant of it.
* The graph's solved nodes outlive one search (tabled deduction).  A
  search derives its pairs straight into its table's solved map, and an
  item that a later search registers under a solved node is fed that
  node's pairs at once; the node is not expanded again, so its moves are
  never asked for.  A search its deadline cuts empties that map, as a
  tabling engine discards its incomplete tables on an abort
  (``MoveTable``).
* A sequent's moves are the succedent's moves, then the antecedent's one
  list.  Every move but the axiom and the right rules depends on the
  antecedent alone, and a move's step names rules and sites, no
  structure, so the table generates that list once per antecedent; a
  succedent the search reaches it under only gets its premises
  (``MoveTable``).  The sequent a fused step passes through is built only
  when a derivation is extracted (``_apply_step``).
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
from collections import deque, namedtuple
from typing import (
    Callable, Deque, Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
    Tuple,
)

from . import check
from .core import (
    Atom, Bin, BoxDown, Dia, FLeaf, Formula, Over, Product, Sequent, Site,
    Structure, Un, Under, UnitLeaf, UNIT_LEAF, BINARY_MODES, CMODE, DEFAULT,
    UMODE, UNARY_MODES, VALUE,
    parse_formula, print_formula, replace, subtree,
)


# ---------------------------------------------------------------------------
# Rule names

class RuleName(NamedTuple):
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

class Derivation(NamedTuple):
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

class SearchBudget(namedtuple("SearchBudget", "max_derivations")):
    """How much one proof search returns: ``max_derivations`` caps the
    scope readings of one goal, with one derivation each.  Nothing caps the
    search itself, which ends on its own (see ``prove``).  A named tuple
    whose constructor checks the cap (``_make`` and ``_replace`` do not)."""

    __slots__ = ()

    def __new__(cls, max_derivations: int = 16) -> "SearchBudget":
        if max_derivations < 1:
            raise ValueError("max_derivations must be at least 1")
        return super().__new__(cls, max_derivations)


class SearchResult(NamedTuple):
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
# Search move generation

# A scope trace: the worded continuation-functor firings of a derivation
# (``scope_firing``), outermost first.
Trace = tuple[tuple[str, int | None], ...]

# A move is (step, premises, trace).  Its step, (rule, site, fused), applies
# rule at site of the sequent the move sits at; fused is None, or the
# (rule, site) of the one step fused in front of the rule, a producer whose
# only use is the rule, its consumer: a T that quotes the subtree at its
# site under a value diamond, the succedent-side Unquote whose new diamond
# the value-diamond introduction takes off, or a box-down introduction
# whose diamond the diamond introduction takes off.  Every fused step is
# followed by its consumer alone, so a step says all that a move applies,
# and names no structure: ``_apply_step`` builds the sequent a fused step
# passes through when a derivation is extracted.  premises are the rule's
# subgoals, and trace is its scope firing as a 1-tuple, or ().
Step = tuple[RuleName, Site, tuple[RuleName, Site] | None]
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

# The items a search has registered under each node it reached, by key: an
# item (parent, move, parts) is a move at parent whose first len(parts)
# premises have derived the traces parts, and it waits on the node as its
# next premise.
Waiting = dict[str, list[tuple[str, Move, tuple[Trace, ...]]]]


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
            out.append(((rule, (), (T_RULE, ())), (Sequent(ant, succ.body),),
                        ()))
        elif (succ.mode == UMODE and isinstance(ant, Un)
              and ant.mode == VALUE and not ant.has_cmode_node):
            # the succedent-side Unquote, at a quoted root only, fused with
            # the value-diamond introduction that takes its new diamond off
            out.append(((DIA_R[VALUE], (), (UNQUOTE_SUCC, ())),
                        (Sequent(ant.body, succ),), ()))
    elif isinstance(succ, BoxDown):
        # box-down introduction applies to any antecedent at all, so it waits
        # for the pause between continuation cycles; decomposing while a
        # c-node is live only multiplies interleavings of the same proofs
        if not ant.has_cmode_node:
            mode, body = succ.mode, succ.body
            if (isinstance(body, Dia) and body.mode == mode
                    and not _unary_rewrites(mode, ant)):
                # the diamond introduction is the one move at the premise,
                # whose antecedent offers none, so it is fused with the
                # box-down introduction
                out.append(((DIA_R[mode], (), (BOX_DOWN_R[mode], ())),
                            (Sequent(ant, body.body),), ()))
            else:
                goal = Sequent(Un(mode, ant), body)
                out.append(((BOX_DOWN_R[mode], (), None), (goal,), ()))
    return out


def _unary_rewrites(mode: str,
                    body: Structure) -> List[Tuple[RuleName, Structure]]:
    """The moves at a unary node ``⟨mode⟩body``, as (rule, new subtree):
    the box-down elimination at a box-down formula leaf of its mode, and
    the antecedent-side Unquote at a value diamond over a u-diamond.  The
    walk offers these at a unary site, and the box-down introduction is
    fused with its diamond introduction only where they are none."""
    out = []
    if (isinstance(body, FLeaf) and isinstance(body.formula, BoxDown)
            and body.formula.mode == mode):
        out.append((BOX_DOWN_L[mode], FLeaf(body.formula.body)))
    if mode == VALUE and isinstance(body, Un) and body.mode == UMODE:
        out.append((UNQUOTE_ANTE, body))
    return out


def _plain(out: List[AnteMove], ant: Structure, site: Site, rule: RuleName,
           new: Structure) -> None:
    """Add the move that rewrites the subtree at ``site`` to ``new``."""
    out.append(((rule, site, None), replace(ant, site, new), None, ()))


def _quoting(out: List[AnteMove], ant: Structure, site: Site,
             node: Structure, below: Site, rule: RuleName,
             rewrite: Callable[[Bin], Structure]) -> None:
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
    out.append(((rule, site, (T_RULE, site + below)),
                replace(ant, site, new), None, ()))


def _kprime(st: Bin) -> Structure:
    """K′ at ``◇A ∘ ◇B``, which ``_quoting`` applies: ``◇(A ∘ B)``."""
    return Un(VALUE, Bin(DEFAULT, st.left.body, st.right.body))


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
    at each site its left moves, then its structural moves.  The rotations
    move the focus down only toward an open scope-taker and up only toward
    the unit, and K′ merges quotes innermost first (see ``prove``).

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
            f, rule = a.formula, OVER_L[mode]
            taken = _scope_taken(rule, a)
            out.append(((rule, site, None),
                        replace(ant, site, FLeaf(f.result)),
                        Sequent(b, f.argument),
                        () if taken is None else (taken,)))
        if (isinstance(b, FLeaf) and isinstance(b.formula, Under)
                and b.formula.mode == mode):
            f = b.formula
            out.append(((UNDER_L[mode], site, None),
                        replace(ant, site, FLeaf(f.result)),
                        Sequent(a, f.argument), ()))
        if mode == CMODE:
            if isinstance(b, UnitLeaf):
                _plain(out, ant, site, ROOT_B, a)
            # Left→ and Right→ descend the focus into a.left and a.right;
            # they go only toward a scope-taker that no unary node freezes,
            # since any other focus can only climb back out (see ``prove``).
            # Left← and Right← climb toward the unit, never taking it into
            # the focus: Left← is not offered where b.left holds it, and
            # Right←'s fused T refuses to quote it
            down = isinstance(a, Bin) and a.mode == DEFAULT
            up = isinstance(b, Bin) and b.mode == DEFAULT
            if down and a.left.has_open_cmode_formula:
                _plain(out, ant, site, LEFT_F,
                       Bin(CMODE, a.left, Bin(DEFAULT, a.right, b)))
            if up and not b.left.has_unit:
                _plain(out, ant, site, LEFT_B,
                       Bin(CMODE, Bin(DEFAULT, a, b.left), b.right))
            # Right→ takes (◇A ∘ B) *c C to B *c (C ∘ ◇A), Right← takes
            # A *c (B ∘ ◇C) to (◇C ∘ A) *c B
            if down and a.right.has_open_cmode_formula:
                _quoting(out, ant, site, node, (0, 0), RIGHT_F, lambda n: Bin(
                    CMODE, n.left.right, Bin(DEFAULT, n.right, n.left.left)))
            if up:
                _quoting(out, ant, site, node, (1, 1), RIGHT_B, lambda n: Bin(
                    CMODE, Bin(DEFAULT, n.right.right, n.left), n.right.left))
        else:
            if not (site or ant.has_unit) and ant.has_open_cmode_formula:
                # Root introduces its unit at the spine only, one context at
                # a time (no context is live at a surface-mode site), and
                # only where a c-mode functor outside every quote could
                # consume the context; a formula leaf's root does the same
                _plain(out, ant, site, ROOT_F, Bin(CMODE, ant, UNIT_LEAF))
            # K′ merges a quote with its sibling, under a fused T unless the
            # sibling is a quote too.  Quotes merge innermost first: T never
            # wraps a pair that holds an open quote, which the moves at the
            # pair's own sites merge first (see ``prove``)
            if isinstance(a, Un) and a.mode == VALUE:
                if not (b.has_open_quote and isinstance(b, Bin)):
                    _quoting(out, ant, site, node, (1,), KPRIME, _kprime)
            elif isinstance(b, Un) and b.mode == VALUE:
                if not (a.has_open_quote and isinstance(a, Bin)):
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
            out.append(((BOX_DOWN_L[VALUE], site, (T_RULE, site)),
                        replace(ant, site, FLeaf(f.body)), None, ()))
        if not site and f.has_cmode:  # Root, as at a surface-mode root
            _plain(out, ant, site, ROOT_F, Bin(CMODE, ant, UNIT_LEAF))
    elif isinstance(node, Un):
        for rule, new in _unary_rewrites(node.mode, node.body):
            _plain(out, ant, site, rule, new)


def _scope_taken(rule: RuleName,
                 functor: Structure) -> Optional[Tuple[str, Optional[int]]]:
    """The (word, position) that ``rule`` takes scope for when it
    eliminates the functor leaf ``functor``: an elimination of a
    continuation-mode functor whose leaf carries a word.  None for every
    other step.  The walk (``_walk``) and ``scope_firing`` both ask it."""
    if (rule == OVER_L[CMODE] and isinstance(functor, FLeaf)
            and functor.word is not None):
        return functor.word, functor.pos
    return None


def _apply_step(seq: Sequent, step: Step,
                premises: Tuple[Derivation, ...]) -> Derivation:
    """The derivation a move at ``seq`` builds over ``premises``: its rule
    at its site, under the step fused in front of the rule, if any (a T,
    the succedent-side Unquote or a box-down introduction).  The one place
    that builds the sequent such a fused step passes through."""
    rule, site, fused = step
    if fused is None:
        return Derivation(rule, seq, premises, site)
    first, at = fused
    ant, succ = seq.antecedent, seq.succedent
    if first is T_RULE:
        between = Sequent(replace(ant, at, Un(VALUE, subtree(ant, at))),
                          succ)
    elif first is UNQUOTE_SUCC:
        between = Sequent(ant, Dia(VALUE, succ))
    else:
        assert isinstance(succ, BoxDown) and first is BOX_DOWN_R[succ.mode]
        between = Sequent(Un(succ.mode, ant), succ.body)
    consumer = Derivation(rule, between, premises, site)
    return Derivation(first, seq, (consumer,), at)


# ---------------------------------------------------------------------------
# The prover
#
# The search runs over the finite graph of the sequents reachable from the
# goal (``prove`` argues that it is finite) in one agenda loop, which
# interleaves two exact steps, and then extracts.  Both steps hand items to
# one function, ``_feed``.  An item (parent, move, parts) is a move at
# parent whose first len(parts) premises have derived the traces parts, a
# trace being the scope firings of some derivation of a node (``Trace``).
# Fed a complete item, one with a part for every premise, ``_feed``
# derives the pair of parent and the move's own trace followed by its
# parts, if that pair is new: into the table's solved map, the one store
# of derived pairs, with the witness (move, parts), and onto the agenda.
# Fed any other item, it registers the item, for the length of the search,
# under the premise it waits on, premises[len(parts)], reaches that premise
# if it is new, and feeds the item each pair the premise holds already.
#
#   * explore: expand a node once: the move table assembles its moves
#     (``MoveTable.moves_of``), and each is fed as the item with no parts,
#     so the axiom derives its pair at once and every other move waits on
#     its first premise.  A premise is reached when an item first waits on
#     it; a new one is expanded later, and one that an earlier call solved
#     is never expanded;
#   * derive: read each derived (node, trace) pair once, and feed each item
#     that waits on the node its parts followed by the trace.  So a
#     two-premise move's second premise is reached only when a pair of its
#     first premise is fed to the move (the demand rule);
#   * extract: per goal trace, shortest first and up to max_derivations
#     of them, the derivation its witnesses spell out (``_extract``),
#     with no clock read.  A derivation's reading is its trace, so each
#     reading is witnessed once, and its rule-order variants (a sentence
#     can have astronomically many derivations of a single reading) are
#     never built.
#
# An item waits on one premise, and every pair that premise derives
# reaches it: a pair the premise holds when the item is registered is fed
# at once, and a later one when it is read.  At an expansion the agenda is
# empty, so the pairs held are those of a node this call expanded, read
# already, or of a node an earlier call solved, which are never read.  An
# item registered while pairs are read may also be fed a pair not yet
# read; that pair reaches it again when it is read, and as the item waits
# on a second premise, the second feed repeats a pair already derived.  A
# deadline that passes inside the loop empties the solved map.
#
# The loop is a plain fixpoint, as in agenda-based deduction (Shieber,
# Schabes & Pereira, *Principles and Implementation of Deductive Parsing*,
# 1995), with Earley-style completion: an item is a dotted rule whose
# parts stand left of the dot, and a move's next premise is predicted
# only once the one before it is complete with a pair.  The agenda is one
# queue of (node, trace) pairs, read in append order.  A pair enters it
# once, when it is first derived, and records its witness: the move that
# derived it and each premise's part of the trace.  Every witness names
# premise pairs derived strictly before it.

def scope_firing(rule: RuleName, antecedent: Structure,
                 site: Site) -> Optional[Tuple[str, Optional[int]]]:
    """The (word, position) a rule application at ``site`` of
    ``antecedent`` takes scope for (``_scope_taken``), or None.  An OverL
    whose site names no subtree raises IndexError (``subtree``), and one
    whose site names no binary node ValueError: a derivation read from
    outside (``derivation_from_dict``) may name either."""
    if rule.tag != "OverL":  # only OverL eliminates the left child at site
        return None
    node = subtree(antecedent, site)
    if not isinstance(node, Bin):
        raise ValueError(f"{rule} at {site}, which names no binary node")
    return _scope_taken(rule, node.left)


class MoveTable:
    """What the searches on one tree share: the moves of each antecedent
    reached so far, and the scope traces of every sequent solved so far.

    The table keeps across calls what a later call reads: a search
    assembles a node's moves when it expands the node (``moves_of``), and
    keeps them and its index of the moves waiting on each node to itself.
    Any search adds to ``halves``, cut or not.  ``solved`` maps the key of
    every node a search expanded to its ``{trace: witness}`` map, empty for
    a node that derives nothing.  A search derives into it as it goes, so
    the map of a node it is still deriving is partial; once the search has
    derived all its pairs, a node's map depends on the sequent alone, even
    though the second premises that no fed pair demanded were never reached
    (``prove`` argues both).  A search cut by its deadline empties
    ``solved``, partial maps and earlier searches' maps alike (a tabling
    engine discards its incomplete tables on an abort: Chen & Warren,
    *Tabled Evaluation with Delaying for General Logic Programs*, 1996), so
    between calls every map it holds is complete.  A later search does not
    expand a solved node again: each item it registers under the node is
    fed the node's pairs at once (``_feed``; ``prove`` argues that this
    keeps every reading).  ``parse_sentence``
    gives each bracketing its own table, shared by that bracketing's goal
    types, and drops it before the next: the goals over one tree reach
    largely the same sequents, while a table spanning bracketings would
    hold the whole sentence's graph for little further sharing.

    A sequent's moves are the succedent's moves, then the antecedent's one
    list.  The axiom and the right moves (the succedent-side Unquote among
    them, fused into its diamond introduction) read the succedent and are
    generated per sequent.  Every other move depends on the antecedent
    alone (``_antecedent_moves``), and the search reaches one antecedent
    under several succedents (``s0``, ``s+``, ``s-``, ``np``), so its
    list is generated once per antecedent and kept in ``halves`` under its
    ``key``.  A step names rules and sites only (see ``Move``), so
    assembling a sequent builds just the list's main premises under its
    succedent, and every sequent over the antecedent shares each move's
    step tuple and minor premise.  Each move carries its scope trace,
    which depends on the move alone (see ``Move``).

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
        every unary node, a scope-taker that no quote freezes, and Left←
        and Right← never take the unit into the focus.  A producer whose
        only use is the next step is fused into it: T into its consumer,
        the succedent-side Unquote, offered only at a quoted root (an
        antecedent that is itself a value diamond), into the diamond
        introduction that cancels its new diamond, and the box-down
        introduction at ``□m ◇m A`` into the diamond introduction, unless
        the wrapped antecedent has a move of its own.  K′ quotes no pair
        that holds an open quote, so quotes merge innermost first
        (``prove`` says why these gates lose nothing).
        """
        ant = seq.antecedent
        if isinstance(ant, FLeaf) and ant.formula == seq.succedent:
            # Nothing below a closed leaf can introduce a scope-taking step,
            # so alternative unfoldings of it would only duplicate
            # derivations.
            return [((LEX if ant.word is not None else AXIOM, (), None), (),
                     ())]
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
    derivations it returns, so once the agenda loop ends the search
    completes.  A NaN ``deadline`` raises ValueError before any search,
    since no clock reading would ever pass it.  No ``budget`` means
    ``SearchBudget()``.

    A goal whose skeleton cannot reduce to its clause type is refuted
    before any search (``_skeleton_refutes``).  Every other goal is
    searched, over the sequent graph that the move table spans
    (``MoveTable.moves_of``), in the one agenda loop described in the
    commentary that opens this section of the module, and then extracted.

    Why the search ends.  The loop expands each node once, and only nodes
    reachable from the goal, of which there are finitely many.  Every
    formula of one is a subformula of a goal formula (the ``◇v ◇u X`` that
    the succedent-side Unquote makes of a subformula ``◇u X`` stands only
    in the sequent it passes through on the way to its fused diamond
    introduction), and every word label is one of the goal's; so it is
    enough that the structures stay bounded in size.

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
    and leaves, and the graph is finite.  The loop derives and reads each
    node and trace once, and a trace fires each worded continuation
    functor of the goal once at most, so the loop ends too.

    Why the demand rule loses nothing.  Every node the loop expands ends
    with every trace that some derivation of it over the table's moves has,
    by induction on the height of that derivation.  Take the derivation's
    last move ``m`` at ``N``, with premises ``P1``, ..., ``Pk`` (none for
    an axiom, two at most) and their parts ``t1``, ..., ``tk`` of the
    trace.  The expansion of ``N`` feeds ``m`` the item with no parts.
    Say ``m``'s item with parts ``t1``, ..., ``ti`` is fed, for an
    ``i < k``.  It waits on ``P(i+1)``, which is thus expanded, or was
    solved by an earlier call whose map is complete, and by induction
    derives ``t(i+1)``.  If ``P(i+1)`` held that pair when the item was
    registered, the item is fed it then; otherwise the pair is read later
    and fed to every item that waits on ``P(i+1)``, this one among them.
    Either way the item with parts ``t1``, ..., ``t(i+1)`` is fed, so the
    complete item is fed, and ``N`` derives the trace.  A second premise is
    thus reached when a pair of the first premise is fed to the move, not
    when the first premise first derives one.  So the demand rule skips
    only second premises of moves that derive nothing, every node in the
    solved map holds the trace set it would hold in a search that expands
    the whole reachable graph first, and a refutation stays as exact as
    the premises below make it.
    Only the order in which pairs are derived changes, so a first witness,
    and the rule-order variant it spells out, may differ from that
    search's; the tests keep that search as ``ExhaustiveSearch``, the
    reference ``prove`` must match.

    Why extraction ends.  Extraction follows the first witness of each pair,
    and every witness names premise pairs derived strictly before it, so no
    pair recurs below itself and every branch ends (``_extract``).  That
    holds across the calls on one table.  A cut call empties the solved
    map, so it holds only the pairs of this call and of earlier calls that
    completed.  A witness an earlier call derived names only that call's
    pairs or older ones, and every pair of an earlier call precedes all of
    this call's.  A derivation's reading is its trace (``extract_reading``
    reads the firings in preorder, the order in which a complete item
    follows the move's own trace with its parts), so each reading found
    is returned once.

    An empty result is a refutation, given six premises.

    * Normal form, a claim not proved here: a derivation has one of the
      same scope trace in the normal form the move table offers (each
      producer fused into its consumer, Root at the root, surface moves
      last; see the module docstring).
    * The succedent-side Unquote at a quoted root, argued.  The table
      offers the Unquote at ``Γ ⊢ ◇u X`` only when ``Γ`` is itself a value
      diamond ``◇Δ``, fused with the ``DiaR(v)`` that takes the new diamond
      off: the move's premise is ``Δ ⊢ ◇u X``.  Take a derivation that
      unquotes at a continuation-free ``Γ``.  Above that step its main
      branch keeps the succedent ``◇v ◇u X`` through steps on the
      antecedent up to the right rule that removes the ``◇v`` (``DiaR(v)``
      or the fused ``T+DiaR``, the only right rules such a succedent has).
      Those steps read the antecedent alone, so each is a move under
      ``◇u X`` too, unless that sequent is an axiom, which closes the
      branch with the same trace: a derivation over one leaf fires nothing.
      Move the Unquote up past them.  If the consumer is ``DiaR(v)``, the
      Unquote now stands right below it at a quoted root, which is the
      fused move; if it is ``T+DiaR``, the two cancel and both go.  The
      scope trace is the same.  From a continuation-free antecedent only
      Root, at the root, and the unfolding of a c-mode product make a
      c-mode node, so without c-mode products in the lexicon the quoted
      root is continuation-free as the gate asks; a lexicon with one is not
      covered.
    * The box-down introduction fused with its diamond introduction,
      argued.  At a continuation-free ``Γ ⊢ □m ◇m A`` the table offers
      ``BoxDownR(m)`` and the ``DiaR(m)`` after it as one move, with the
      premise ``Γ ⊢ A``, unless ``⟨m⟩Γ`` has an antecedent move of its
      own: the walk stops at that unary root, and one function,
      ``_unary_rewrites``, gives both the walk's moves there and the gate
      (the box-down elimination at a ``□m`` formula leaf and, for
      ``m = v``, the antecedent-side Unquote at a ``⟨u⟩`` node).  The
      sequent between them, ``⟨m⟩Γ ⊢ ◇m A``, is no axiom, as its
      antecedent is no formula leaf, and its one right rule is
      ``DiaR(m)``, as its antecedent is a diamond of the succedent's mode.
      So where ``⟨m⟩Γ`` has no move, every derivation through that sequent
      takes the fused move.
    * The focus moves only toward a scope-taker that no quote freezes,
      argued, given the next premise.  Root→ takes ``Γ`` to ``Γ *c 1``,
      Left→ takes ``(A ∘ B) *c C`` to ``A *c (B ∘ C)`` and Right→ takes
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
      the derivation climbs back out of ``X``.  By the next premise the
      unit stays in ``C``, so each climb inverts the descent it follows:
      after Left→ Right← would have to quote ``C``, and after Right→
      Left← would take ``C`` into the focus, so Left← follows Left→ and
      Right← follows Right→.  The excursion ends at the sequent it started
      from, except for the quotes that Right→ put on the siblings it
      passed.  Drop the excursion, and commute each of those T steps down
      to the step that consumes its quote, as the normal form does: the
      scope trace is the same.  After Root→ the context is the unit, which
      no rotation takes apart, so only Root← can undo it, and the same
      argument drops the excursion from Root→ to that Root←.
    * The climb toward the unit, argued in part.  Left← takes
      ``A *c (X ∘ Y)`` to ``(A ∘ X) *c Y``, and the table offers it only
      when ``X`` holds no unit; Right← takes ``A *c (X ∘ ◇Y)`` to
      ``(◇Y ∘ A) *c X``, and its fused T refuses a subtree that holds the
      unit.  A quote it moves without a T was made by a T, the diamond
      elimination or K′, none of which quotes the unit (with no
      value-mode box-down in the lexicon, nothing else makes a quote).
      Root→ puts the unit in the context, so no offered move takes it into
      the focus.  Read the structure as a tree rooted at its unit,
      as ``_skeleton_refutes`` does: the rotations keep that tree and move
      only the c-mode edge, so the sequents between two firings plug one
      tree and differ in the subtree that is the focus and in their quotes.
      Take a derivation that takes the unit into the focus.  Nothing fires
      there, as the focus is no c-mode functor leaf, and the cycle cannot
      close, as the context is not the unit alone; so rotations take the
      unit back into the context before anything fires or the cycle
      closes.  That excursion runs from a sequent ``S`` to a sequent ``S′``
      with the unit in the context, and in the rooted tree the focus of
      ``S′`` is reached from that of ``S`` by climbing toward the root to
      the lowest subtree that holds both, then descending: moves the table
      offers, as no climb toward the root takes the unit into the focus.
      Not covered, and a claim: that this route, whose Right rotations
      quote other siblings than the excursion's did, derives the same
      scope traces as ``S′``.  A table that also offers the withheld Left←,
      with every other gate open too (``AllGatesOpenTable`` in the tests),
      finds the same goal traces on the grid, both possessives and the
      whole ditransitive frame.
    * Quotes merge innermost first, argued in part.  K′ merges a quote
      ``◇A`` with its sibling ``X`` under a fused T only when ``X`` is no
      pair that holds an open quote, a value diamond outside every unary
      node.  Take a withheld move at ``Γ[◇A ∘ X] ⊢ G``, where the open
      quotes of ``X`` are ``◇Y1``, ..., ``◇Yk``, and let ``X°`` be ``X``
      with those k diamonds dropped.  K′ is offered only while no context
      is live, so every pair in the antecedent is a surface-mode node, and
      a fused T never quotes the unit, so ``X`` holds none.  By induction
      on the size of ``X``, offered moves turn ``X`` into ``◇X°``: first
      each side of ``X`` that is a pair with an open quote becomes a
      quote; then each side is a quote or holds no open quote, one of
      them is a quote, and K′ at ``X`` is offered, under a fused T or,
      when both sides are quotes, plain.  The plain K′ with ``◇A`` then
      reaches ``Γ[◇(A ∘ X°)] ⊢ G``, and none of these moves fires.  k
      T steps, at the sites of ``Y1``, ..., ``Yk``, take that sequent to
      the withheld move's premise ``Γ[◇(A ∘ X)] ⊢ G``, so a derivation of
      the premise, under them, derives it with the same scope trace, as
      T fires nothing.
      Not covered, and a claim: that the table derives that trace at
      ``Γ[◇(A ∘ X°)] ⊢ G``.  That is the normal-form premise, for a
      derivation whose T steps sit inside a quote, and its normal form
      may again use a withheld move, so no induction is shown to end.  A
      table that also offers every withheld K′, with every other gate open
      too (``AllGatesOpenTable`` in the tests), finds the same goal traces
      on the grid, both possessives and the whole ditransitive frame.

    ``table`` is shared with other calls on the terms ``MoveTable``
    states; a call given none uses a private one.  A call derives into
    the table's solved map as it goes and empties the map if its deadline
    cuts it.  Calls on one table generate each antecedent's moves once
    among them, and none expands a sequent that an earlier call solved
    and left in the map.  Sharing keeps every verdict and reading: each node
    a completed search solved has every trace it can derive (the induction
    above), although the second premises its moves never demanded may be
    missing from the map, and a later call that is fed those pairs
    derives the same traces as it would on its own.  The first goal on a
    table returns exactly what a fresh search returns.  A later goal
    returns the same readings in the same order, but a reading's
    derivation may be another rule-order variant of it: its pairs are
    derived in another order than on a fresh table, and some witnesses are
    those an earlier call chose.

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
    """The search of ``prove`` on ``table``: the one agenda loop, then
    extraction."""
    stop_at = None if deadline is None else time.monotonic() + deadline
    solved = table.solved
    # a node is reached when it first gets an entry in ``waiting``
    waiting: Waiting = {goal.key: []}
    agenda: Deque[Tuple[str, Trace]] = deque()
    work = [] if goal.key in solved else [goal]
    while True:
        # derive: read each pair once and feed it to the items that wait on
        # its node.  A trace can be no longer than the node's stock of
        # worded continuation functors, so there are finitely many pairs
        while agenda:
            if stop_at is not None and time.monotonic() >= stop_at:
                solved.clear()
                return SearchResult([], timed_out=True)
            key, trace = agenda.popleft()
            for parent, move, parts in waiting[key]:
                _feed(parent, move, parts + (trace,), waiting, solved, agenda,
                      work)
        if not work:
            break
        # explore: expand the next node once, feeding each move its empty
        # item
        if stop_at is not None and time.monotonic() >= stop_at:
            solved.clear()
            return SearchResult([], timed_out=True)
        seq = work.pop()
        key = seq.key
        solved[key] = {}
        for move in table.moves_of(seq):
            _feed(key, move, (), waiting, solved, agenda, work)

    # extract: one derivation per goal trace, shortest traces first, up to
    # the cap on readings
    traces = sorted(solved[goal.key], key=lambda trace: (len(trace), trace))
    return SearchResult([_extract(solved, goal, trace)
                         for trace in traces[:budget.max_derivations]])


def _feed(parent: str, move: Move, parts: Tuple[Trace, ...],
          waiting: Waiting, solved: Dict[str, Dict[Trace, Witness]],
          agenda: Deque[Tuple[str, Trace]], work: List[Sequent]) -> None:
    """Feed the item (``parent``, ``move``, ``parts``), whose ``parts`` are
    the traces of the move's first premises.  Complete, it derives its pair
    at ``parent``, if new; otherwise it waits on its next premise, which is
    reached if new, and is fed each pair that premise holds already."""
    premises = move[1]
    done = len(parts)
    if done == len(premises):
        new = sum(parts, move[2])
        by_trace = solved[parent]
        if new not in by_trace:
            by_trace[new] = (move, parts)
            agenda.append((parent, new))
        return
    premise = premises[done]
    key = premise.key
    items = waiting.get(key)
    if items is None:
        items = waiting[key] = []
        if key not in solved:
            work.append(premise)
    items.append((parent, move, parts))
    pairs = solved.get(key)
    if pairs:
        # over a snapshot: a feed may derive a pair at the premise itself
        for trace in tuple(pairs):
            _feed(parent, move, parts + (trace,), waiting, solved, agenda,
                  work)


def _extract(solved: Dict[str, Dict[Trace, Witness]], seq: Sequent,
             trace: Trace) -> Derivation:
    """The extraction of ``prove``: the derivation of ``seq`` with scope
    trace ``trace`` that the first witnesses spell out, the witness's move
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
# The derivation checker, which lives in ``check``, apart from the search; it
# is found here too, beside the derivations it checks

validate_derivation = check.validate_derivation


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
