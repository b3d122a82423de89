"""Bounded backward proof search for the multimodal logic.

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
rewrite.  Termination is enforced by a per-branch budget: a cap on structural
postulate applications, a separate cap on T insertions (the only
size-increasing rewrite), a cap on the number of derivations returned, plus a
per-branch repeated-sequent check.  An empty result therefore means "not
derivable within budget", and the result carries a flag saying whether any
branch was cut short.

The search proceeds in cycles (isolate a scope-taking functor on the
continuation spine, collapse it, reassemble, cancel the quoting diamonds)
and the moves offered follow that normal form, which keeps the reachable
sequent graph finite and small (details at the move generator and in
``prove``).  Three economies matter, all invisible in the derivations
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

Rather than a memoized depth-first search (per-branch budgets make the same
subgoal recur under countless different remaining budgets), ``prove``
evaluates the reachable sequent graph exactly, in three phases, and then
extracts derivation trees; see the commentary on ``prove``.  Three more
economies concern the cost of a search, not its space, and leave every
result as it is:

* The graph's edges outlive one search.  A node's moves depend only on the
  sequent: no budget enters their generation, each carries its cost, and
  the search filters them by cost as it uses them.  So a ``MoveTable``
  keeps them for later calls (tabled deduction).  ``parse_sentence`` shares one table between
  the goal types of each bracketing and drops it before the next.
* The table hash-conses premises: every premise its moves hold is the one
  ``Sequent`` object for its full key, so a sequent that many moves lead
  to is stored once.
* The cyclic garbage collector is paused while ``prove`` runs.  The search
  creates no reference cycles, so reference counting frees all it drops,
  and the collector would only rescan the live graph to find nothing.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (
    Bin, BoxDown, Dia, FLeaf, Over, Product, Sequent, Structure,
    Un, Under, UnitLeaf, UNIT_LEAF, CMODE, DEFAULT, UMODE, VALUE,
    formula_leaf_count, parse_formula, print_formula,
)

Site = Tuple[int, ...]


class SearchTimeout(Exception):
    """Raised internally when a wall-clock deadline expires."""


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

    def walk(self):
        yield self
        for p in self.premises:
            yield from p.walk()

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
    """Termination bounds for one proof search.

    ``max_structural_steps`` caps structural-postulate applications per
    branch, ``max_t_insertions`` caps T uses per branch (T grows the
    antecedent; everything else shrinks or rearranges), ``max_derivations``
    caps how many derivations are returned.  An unset T cap (``None``) is
    the goal's formula leaves + 2, which ``prove`` works out per goal.
    """

    max_structural_steps: int = 64
    max_t_insertions: Optional[int] = None
    max_derivations: int = 16

    def __post_init__(self):
        if self.max_structural_steps < 0 or (
                self.max_t_insertions is not None
                and self.max_t_insertions < 0):
            raise ValueError("budget counts must be nonnegative")
        if self.max_derivations < 1:
            raise ValueError("max_derivations must be at least 1")


@dataclass
class SearchResult:
    """Derivations found plus whether any branch hit a budget limit.
    ``timed_out`` marks a search aborted by its wall-clock deadline."""

    derivations: List[Derivation]
    budget_exhausted: bool
    timed_out: bool = False


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


def _open_sites(st: Structure, prefix: Site = ()) -> List[Tuple[Site, Structure]]:
    """Sites ordered leftmost-innermost (children before parents), stopping
    at unary wrappers: a quoted (or otherwise boxed) subtree is opaque until
    the wrapper is consumed, so moves strictly inside it commute to after
    its removal."""
    out: List[Tuple[Site, Structure]] = []
    if isinstance(st, Bin):
        out.extend(_open_sites(st.left, prefix + (0,)))
        out.extend(_open_sites(st.right, prefix + (1,)))
    out.append((prefix, st))
    return out


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

# A move is (steps, premises, s_cost, t_cost) where steps is a chain of
# (rule, site, conclusion) applied top-down, premises are the subgoals of
# the innermost step, and the costs count the chain's structural steps and
# its T insertions.
Move = Tuple[Tuple[Tuple[RuleName, Site, Sequent], ...], Tuple[Sequent, ...], int, int]


def _axiom_move(seq: Sequent) -> Optional[Move]:
    ant = seq.antecedent
    if isinstance(ant, FLeaf) and ant.formula == seq.succedent:
        rule = LEX if ant.word is not None else AXIOM
        return ((rule, (), seq),), (), 0, 0
    return None


def _right_moves(seq: Sequent) -> List[Move]:
    out: List[Move] = []
    ant, succ = seq.antecedent, seq.succedent
    if isinstance(succ, Product):
        if isinstance(ant, Bin) and ant.mode == succ.mode:
            out.append(((
                (RuleName("ProdR", succ.mode), (), seq),),
                (Sequent(ant.left, succ.left), Sequent(ant.right, succ.right)),
                0, 0))
    elif isinstance(succ, Over):
        goal = Sequent(Bin(succ.mode, ant, FLeaf(succ.argument)), succ.result)
        out.append((((RuleName("OverR", succ.mode), (), seq),), (goal,), 0, 0))
    elif isinstance(succ, Under):
        goal = Sequent(Bin(succ.mode, FLeaf(succ.argument), ant), succ.result)
        out.append((((RuleName("UnderR", succ.mode), (), seq),), (goal,), 0, 0))
    elif isinstance(succ, Dia):
        rule = RuleName("DiaR", succ.mode)
        if isinstance(ant, Un) and ant.mode == succ.mode:
            out.append((((rule, (), seq),), (Sequent(ant.body, succ.body),), 0, 0))
        elif succ.mode == VALUE:
            # fuse a T on the whole antecedent with the diamond introduction
            mid = Sequent(Un(VALUE, ant), succ)
            out.append((((T_RULE, (), seq), (rule, (), mid)),
                        (Sequent(ant, succ.body),), 1, 1))
    elif isinstance(succ, BoxDown):
        # box-down introduction applies to any antecedent at all, so it waits
        # for the pause between continuation cycles; decomposing while a
        # c-node is live only multiplies interleavings of the same proofs
        if not ant.has_cmode_node:
            goal = Sequent(Un(succ.mode, ant), succ.body)
            out.append((((RuleName("BoxDownR", succ.mode), (), seq),),
                        (goal,), 0, 0))
    return out


def _left_moves_at(seq: Sequent, site: Site, node: Structure,
                   c_live: bool) -> List[Move]:
    out: List[Move] = []
    ant, succ = seq.antecedent, seq.succedent
    if isinstance(node, Bin):
        if c_live and node.mode != CMODE:
            return out
        left, right = node.left, node.right
        if (isinstance(left, FLeaf) and isinstance(left.formula, Over)
                and left.formula.mode == node.mode):
            f = left.formula
            main = Sequent(replace(ant, site, FLeaf(f.result)), succ)
            out.append((((RuleName("OverL", node.mode), site, seq),),
                        (main, Sequent(right, f.argument)), 0, 0))
        if (isinstance(right, FLeaf) and isinstance(right.formula, Under)
                and right.formula.mode == node.mode):
            f = right.formula
            main = Sequent(replace(ant, site, FLeaf(f.result)), succ)
            out.append((((RuleName("UnderL", node.mode), site, seq),),
                        (main, Sequent(left, f.argument)), 0, 0))
    elif c_live:
        return out
    elif isinstance(node, FLeaf):
        f = node.formula
        if isinstance(f, Dia):
            new = Un(f.mode, FLeaf(f.body))
            out.append((((RuleName("DiaL", f.mode), site, seq),),
                        (Sequent(replace(ant, site, new), succ),), 0, 0))
        elif isinstance(f, Product):
            new = Bin(f.mode, FLeaf(f.left), FLeaf(f.right))
            out.append((((RuleName("ProdL", f.mode), site, seq),),
                        (Sequent(replace(ant, site, new), succ),), 0, 0))
        elif isinstance(f, BoxDown) and f.mode == VALUE:
            # needs a quoting step before the value box-down can be dropped
            mid = Sequent(replace(ant, site, Un(VALUE, node)), succ)
            goal = Sequent(replace(ant, site, FLeaf(f.body)), succ)
            out.append((((T_RULE, site, seq),
                         (RuleName("BoxDownL", VALUE), site, mid)),
                        (goal,), 1, 1))
    elif isinstance(node, Un):
        body = node.body
        if (isinstance(body, FLeaf) and isinstance(body.formula, BoxDown)
                and body.formula.mode == node.mode):
            new = FLeaf(body.formula.body)
            out.append((((RuleName("BoxDownL", node.mode), site, seq),),
                        (Sequent(replace(ant, site, new), succ),), 0, 0))
    return out


def _plain(out: List[Move], seq: Sequent, site: Site, rule: RuleName,
           new: Structure) -> None:
    """Add the move that rewrites the subtree at ``site`` to ``new``."""
    out.append((((rule, site, seq),),
                (Sequent(replace(seq.antecedent, site, new), seq.succedent),),
                1, 0))


def _fused_t(out: List[Move], seq: Sequent, site: Site, t_site: Site,
             rule: RuleName,
             rewrite: Callable[[Structure], Optional[Structure]]) -> None:
    """Add the move that quotes the subtree at ``t_site``, then applies
    ``rewrite`` at ``site``."""
    ant, succ = seq.antecedent, seq.succedent
    target = subtree(ant, t_site)
    if target.has_unit:
        # the unit only ever exists to be consumed by Root; quoting a
        # context that contains it leads nowhere
        return
    quoted = replace(ant, t_site, Un(VALUE, target))
    mid = Sequent(quoted, succ)
    new = rewrite(subtree(quoted, site))
    assert new is not None
    out.append((((T_RULE, t_site, seq), (rule, site, mid)),
                (Sequent(replace(quoted, site, new), succ),), 2, 1))


def _structural_moves_at(seq: Sequent, site: Site, node: Structure,
                         c_live: bool) -> List[Move]:
    """Postulate moves at one site, with T fused into consumers."""
    out: List[Move] = []
    ant = seq.antecedent
    if (not site and not c_live and not ant.has_unit
            and ant.has_cmode_formula):
        # Root introduces its unit at the spine only, one context at a time,
        # and only where a c-mode functor could consume the context
        _plain(out, seq, site, ROOT_F, _root_fwd(node))
    new = _root_bwd(node)
    if new is not None:
        _plain(out, seq, site, ROOT_B, new)
    new = _left_fwd(node)
    if new is not None:
        _plain(out, seq, site, LEFT_F, new)
    new = _left_bwd(node)
    if new is not None:
        _plain(out, seq, site, LEFT_B, new)
    if (isinstance(node, Bin) and node.mode == CMODE
            and isinstance(node.left, Bin) and node.left.mode == DEFAULT):
        if isinstance(node.left.left, Un) and node.left.left.mode == VALUE:
            _plain(out, seq, site, RIGHT_F, _right_fwd(node))
        else:
            _fused_t(out, seq, site, site + (0, 0), RIGHT_F, _right_fwd)
    if (isinstance(node, Bin) and node.mode == CMODE
            and isinstance(node.right, Bin) and node.right.mode == DEFAULT):
        if isinstance(node.right.right, Un) and node.right.right.mode == VALUE:
            _plain(out, seq, site, RIGHT_B, _right_bwd(node))
        else:
            _fused_t(out, seq, site, site + (1, 1), RIGHT_B, _right_bwd)
    if c_live:
        return out
    if isinstance(node, Bin) and node.mode == DEFAULT:
        left_dia = isinstance(node.left, Un) and node.left.mode == VALUE
        right_dia = isinstance(node.right, Un) and node.right.mode == VALUE
        if left_dia and right_dia:
            _plain(out, seq, site, KPRIME, _kprime(node))
        elif left_dia:
            _fused_t(out, seq, site, site + (1,), KPRIME, _kprime)
        elif right_dia:
            _fused_t(out, seq, site, site + (0,), KPRIME, _kprime)
        # with neither side quoted, a single T on the whole pair reaches the
        # same sequent more cheaply, via the consumer of that diamond
    new = _unquote_ante(node)
    if new is not None:
        _plain(out, seq, site, UNQUOTE_ANTE, new)
    return out


def _moves(seq: Sequent) -> List[Move]:
    """All backward moves at ``seq``, in fixed order, each carrying its
    (structural, T) cost.  The moves do not depend on any budget: a search
    gates each one by its cost against what the branch has left.

    The search works in cycles, and the moves offered follow that discipline
    (none of the gates discards a normal-form derivation):

    * while a continuation node is live ("c-live"), only the spine moves
      make progress: rotations, Root, and collapses of c-mode functors;
    * everything else (surface-mode logic, diamond merging and
      cancellation, succedent decomposition) happens between cycles, on a
      continuation-free antecedent;
    * Root introduces its unit only on a continuation-free antecedent that
      actually holds a c-mode functor able to consume the context;
    * succedent-side Unquote fires only when the antecedent carries a value
      diamond for the introduced diamond to cancel against.
    """
    axiom = _axiom_move(seq)
    if axiom is not None:
        # Nothing below a closed leaf can introduce a scope-taking step, so
        # alternative unfoldings of it would only duplicate derivations.
        return [axiom]
    ant, succ = seq.antecedent, seq.succedent
    c_live = ant.has_cmode_node
    out = _right_moves(seq)
    sites = _open_sites(ant)
    for site, node in sites:
        out.extend(_left_moves_at(seq, site, node, c_live))
    if (isinstance(succ, Dia) and succ.mode == UMODE and not c_live
            and ant.has_value_diamond):
        out.append((((UNQUOTE_SUCC, (), seq),),
                    (Sequent(ant, Dia(VALUE, succ)),), 1, 0))
    for site, node in sites:
        out.extend(_structural_moves_at(seq, site, node, c_live))
    return out


def _apply_chain(steps: Sequence[Tuple[RuleName, Site, Sequent]],
                 premises: Tuple[Derivation, ...]) -> Derivation:
    rule, site, conclusion = steps[-1]
    d = Derivation(rule, conclusion, premises, site)
    for rule, site, conclusion in reversed(steps[:-1]):
        d = Derivation(rule, conclusion, (d,), site)
    return d


# ---------------------------------------------------------------------------
# The prover
#
# Per-branch budgets make naive memoization useless: the same sequent is
# reached with many different remaining budgets, each a fresh cache key.  The
# search therefore runs over the (finite, usually small) graph of reachable
# sequents in three exact phases:
#
#   1. explore: walk the graph from the goal, taking each node's moves from
#      the move table (generated there once, possibly by an earlier call)
#      and recording the Pareto-minimal (structural, T) path costs at which
#      the node is reachable within budget.  The first time a node settles,
#      its moves also go into the index phase 2 reads: each move under each
#      of its premises, and a first label for each move with no premises;
#   2. evaluate: fix, per node and per scope trace (the sequence of worded
#      continuation-functor firings a derivation performs, outermost first),
#      the Pareto frontier of derivation costs, where the cost of a
#      derivation is the maximum root-to-leaf path cost (the per-branch
#      reading of the budget);
#   3. extract: deterministic trace-guided DFS emitting derivation trees,
#      pruning each subgoal against its frontier so only admissible branches
#      are entered.  Derivations are drawn round-robin across the admissible
#      traces, so every realizable scope reading is witnessed before
#      max_derivations is spent on variants of one reading (a sentence can
#      have astronomically many derivations of a single reading).

def _pareto_add(frontier: List[Tuple[int, int]], s: int, t: int) -> bool:
    """Insert a cost vector, keeping only minimal ones; False if dominated."""
    for fs, ft in frontier:
        if fs <= s and ft <= t:
            return False
    frontier[:] = [(fs, ft) for fs, ft in frontier if not (s <= fs and t <= ft)]
    frontier.append((s, t))
    return True


Trace = Tuple[Tuple[str, Optional[int]], ...]


def scope_firing(rule: RuleName, conclusion: Sequent,
                 site: Site) -> Optional[Tuple[str, Optional[int]]]:
    """The (word, position) a rule application takes scope for: an
    elimination of a continuation-mode functor whose leaf carries a word.
    None for every other step."""
    if rule.tag != "OverL" or rule.mode != CMODE:
        return None
    node = subtree(conclusion.antecedent, site)
    assert isinstance(node, Bin)
    leaf = node.left
    if isinstance(leaf, FLeaf) and leaf.word is not None:
        return leaf.word, leaf.pos
    return None


# A table move is a move plus its scope trace: the firing (``scope_firing``)
# of its last step as a 1-tuple, or () when that step fires nothing.
TableMove = Tuple[Tuple[Tuple[RuleName, Site, Sequent], ...],
                  Tuple[Sequent, ...], int, int, Trace]


class MoveTable:
    """The moves of every sequent expanded so far, keyed by ``full_key``.

    Moves depend on the sequent alone, so one table can serve several
    ``prove`` calls.  ``parse_sentence`` gives each bracketing its own table,
    shared by that bracketing's goal types, and drops it before the next:
    the goals over one tree reach largely the same sequents, while a table
    spanning bracketings would hold the whole sentence's graph for little
    further sharing.  Premises are hash-consed: every premise the moves
    hold is the table's one ``Sequent`` for its key, so a sequent that many
    moves lead to is stored once.  Each move carries its scope trace, which
    depends on the move alone (see ``TableMove``).
    """

    __slots__ = ("sequents", "moves")

    def __init__(self) -> None:
        self.sequents: Dict[str, Sequent] = {}
        self.moves: Dict[str, List[TableMove]] = {}

    def canonical(self, seq: Sequent) -> Sequent:
        """The table's one sequent with the full key of ``seq``."""
        return self.sequents.setdefault(seq.full_key, seq)

    def moves_of(self, seq: Sequent) -> List[TableMove]:
        """The moves at ``seq`` (a canonical sequent), generated once."""
        moves = self.moves.get(seq.full_key)
        if moves is None:
            canonical = self.canonical
            moves = self.moves[seq.full_key] = []
            for steps, premises, ms, mt in _moves(seq):
                rule, site, conclusion = steps[-1]
                firing = scope_firing(rule, conclusion, site)
                moves.append((steps, tuple(map(canonical, premises)), ms, mt,
                              () if firing is None else (firing,)))
        return moves


def prove(goal: Sequent, budget: Optional[SearchBudget] = None,
          deadline: Optional[float] = None,
          table: Optional[MoveTable] = None) -> SearchResult:
    """Search backward for derivations of ``goal``.

    Returns up to ``budget.max_derivations`` locally-valid derivations in a
    deterministic order; an empty list means no proof was found within the
    budget.  ``deadline`` (seconds, wall clock) optionally aborts long
    searches; an aborted search reports no derivations and an exhausted
    budget.  No ``budget`` means ``SearchBudget()``, and a budget whose T
    cap is unset gets the goal's formula leaves + 2, worked out here and
    nowhere else.

    There is one search path, over the sequent graph that ``_moves``
    spans.  Every move carries its (structural, T) cost, and the budget
    acts only as a filter on the costs a branch accumulates: a move that
    would take its branch past ``max_structural_steps`` or
    ``max_t_insertions`` is never taken, and marks the result
    ``budget_exhausted``.  The three phases (explore, evaluate, extract)
    are described above ``_pareto_add``.

    ``table`` keeps the moves of the sequents the search expands.  Calls
    given the same table generate each sequent's moves once among them;
    a call given none uses a private one.  Sharing cannot change a result:
    moves do not depend on the budget, and everything that depends on the
    goal or the budget (reach labels, cost frontiers, the extraction path)
    stays private to the call.

    The cyclic garbage collector is paused for the call, and the caller's
    setting is restored on return.  This is safe because nothing the search
    builds forms a reference cycle: structures, sequents, moves, labels and
    derivations are acyclic, and the recursive extraction is a method, not
    a closure that refers to itself through its own cell.  Reference
    counting therefore frees everything the call drops, and a collection
    during the search could reclaim nothing; it would only rescan the
    growing graph.
    """
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
    """The three-phase search of ``prove`` over the moves in ``table``."""
    cap_s = budget.max_structural_steps
    cap_t = budget.max_t_insertions
    if cap_t is None:
        cap_t = formula_leaf_count(goal.antecedent) + 2
    stop_at = None if deadline is None else time.monotonic() + deadline
    exhausted = False
    tick = [0]

    def check_deadline() -> None:
        tick[0] += 1
        if stop_at is not None and tick[0] % 512 == 0 \
                and time.monotonic() > stop_at:
            raise SearchTimeout

    try:
        # phase 1: explore the reachable sequent graph, processing reach
        # labels in nondecreasing cost order so each Pareto point of a node
        # is settled before it propagates (label-setting)
        goal = table.canonical(goal)
        goal_key = goal.full_key
        reach: Dict[str, List[Tuple[int, int]]] = {}
        deps: Dict[str, List[Tuple[str, TableMove]]] = {}
        labels: List[Tuple[int, int, int, str, Trace]] = []
        counter = n_labels = 0
        work: List[Tuple[int, int, int, str, Sequent]] = [
            (0, 0, counter, goal_key, goal)]
        while work:
            check_deadline()
            rs, rt, _, fk, seq = heapq.heappop(work)
            first_settle = fk not in reach
            if not _pareto_add(reach.setdefault(fk, []), rs, rt):
                continue
            for move in table.moves_of(seq):
                _steps, premises, ms, mt, _trace = move
                if first_settle:
                    for premise in premises:
                        deps.setdefault(premise.full_key, []).append(
                            (fk, move))
                    if not premises and ms <= cap_s and mt <= cap_t:
                        n_labels += 1
                        heapq.heappush(labels, (ms, mt, n_labels, fk, ()))
                nrs, nrt = rs + ms, rt + mt
                if nrs > cap_s or nrt > cap_t:
                    exhausted = True
                    continue
                for premise in premises:
                    pk = premise.full_key
                    known = reach.get(pk)
                    if known is None or not any(
                            s <= nrs and t <= nrt for s, t in known):
                        counter += 1
                        heapq.heappush(work, (nrs, nrt, counter, pk, premise))

        # phase 2: fix per-node, per-trace Pareto frontiers of derivation
        # costs, again label-setting in nondecreasing cost order.  A trace
        # can be no longer than the node's stock of worded continuation
        # functors, so the space of labels is finite.  Labels are pushed
        # only for reached nodes and only within the caps; the table may
        # hold more nodes, from other calls.
        frontiers: Dict[str, Dict[Trace, List[Tuple[int, int]]]] = {}
        while labels:
            check_deadline()
            s, t, _, fk, trace = heapq.heappop(labels)
            if not _pareto_add(frontiers.setdefault(fk, {}).setdefault(
                    trace, []), s, t):
                continue
            # combine the new label with the settled labels of the other
            # premise (if any) and push the resulting parent labels
            for parent, (_steps, premises, ms, mt, own) in deps.get(fk, ()):
                if len(premises) == 1:
                    ps, pt = ms + s, mt + t
                    if ps <= cap_s and pt <= cap_t:
                        n_labels += 1
                        heapq.heappush(labels, (ps, pt, n_labels, parent,
                                                own + trace))
                    continue
                pk0, pk1 = premises[0].full_key, premises[1].full_key
                for first, pk, other in ((True, pk0, pk1),
                                         (False, pk1, pk0)):
                    if pk != fk:
                        continue
                    for trace2, front2 in frontiers.get(other, {}).items():
                        full = (own + trace + trace2) if first \
                            else (own + trace2 + trace)
                        for s2, t2 in front2:
                            ps, pt = ms + max(s, s2), mt + max(t, t2)
                            if ps <= cap_s and pt <= cap_t:
                                n_labels += 1
                                heapq.heappush(
                                    labels, (ps, pt, n_labels, parent, full))

        # phase 3: trace-guided extraction along admissible branches only;
        # every goal label lies within the caps, so every goal trace is one
        extraction = _Extraction(table, frontiers, check_deadline)
        goal_traces = sorted(frontiers.get(goal_key, ()),
                             key=lambda trace: (len(trace), trace))
        per_trace = [extraction.extract(goal, trace, cap_s, cap_t,
                                        budget.max_derivations)
                     for trace in goal_traces]
        derivations: List[Derivation] = []
        rank = 0
        while len(derivations) < budget.max_derivations:
            batch = [lst[rank] for lst in per_trace if rank < len(lst)]
            if not batch:
                break
            derivations.extend(batch[:budget.max_derivations
                                     - len(derivations)])
            rank += 1
        return SearchResult(derivations, exhausted)
    except SearchTimeout:
        return SearchResult([], True, timed_out=True)


class _Extraction:
    """Phase 3 of ``prove``: a deterministic trace-guided DFS that emits
    derivation trees, entering only subgoals whose cost frontier admits the
    remaining budget.

    A class rather than a nested function: a recursive closure refers to
    itself through its own cell, and that cycle would keep the call's whole
    sequent graph alive until the cyclic collector next ran.
    """

    def __init__(self, table: MoveTable,
                 frontiers: Dict[str, Dict[Trace, List[Tuple[int, int]]]],
                 check_deadline: Callable[[], None]) -> None:
        self.table = table
        self.frontiers = frontiers
        self.check_deadline = check_deadline
        self.path: Dict[str, int] = {}

    def admissible(self, seq: Sequent, trace: Trace, s_rem: int,
                   t_rem: int) -> bool:
        return any(s <= s_rem and t <= t_rem for s, t in
                   self.frontiers.get(seq.full_key, {}).get(trace, ()))

    def extract(self, seq: Sequent, trace: Trace, s_rem: int, t_rem: int,
                want: int) -> List[Derivation]:
        self.check_deadline()
        path = self.path
        if seq.key in path:
            return []
        admissible, extract = self.admissible, self.extract
        found: List[Derivation] = []
        path[seq.key] = 1
        try:
            for steps, premises, ms, mt, own in self.table.moves[seq.full_key]:
                if len(found) >= want:
                    break
                s2, t2 = s_rem - ms, t_rem - mt
                if s2 < 0 or t2 < 0:
                    continue
                if own:
                    if not trace or trace[0] != own[0]:
                        continue
                    rest = trace[1:]
                else:
                    rest = trace
                # fused chains pass through intermediate sequents, which
                # count toward the branch's no-repeat check too
                mids = [c.key for _r, _s, c in steps[1:]]
                if any(m in path for m in mids):
                    continue
                for m in mids:
                    path[m] = 1
                try:
                    if not premises:
                        if not rest:
                            found.append(_apply_chain(steps, ()))
                        continue
                    if len(premises) == 1:
                        if not admissible(premises[0], rest, s2, t2):
                            continue
                        for sub in extract(premises[0], rest, s2, t2,
                                           want - len(found)):
                            found.append(_apply_chain(steps, (sub,)))
                    else:
                        major, minor = premises
                        for cut in range(len(rest) + 1):
                            if len(found) >= want:
                                break
                            part1, part2 = rest[:cut], rest[cut:]
                            if not (admissible(major, part1, s2, t2)
                                    and admissible(minor, part2, s2, t2)):
                                continue
                            need = want - len(found)
                            mains = extract(major, part1, s2, t2, need)
                            if not mains:
                                continue
                            sides = extract(minor, part2, s2, t2, need)
                            for main in mains:
                                if len(found) >= want:
                                    break
                                for side in sides:
                                    if len(found) >= want:
                                        break
                                    found.append(
                                        _apply_chain(steps, (main, side)))
                finally:
                    for m in mids:
                        del path[m]
        finally:
            del path[seq.key]
        return found


# ---------------------------------------------------------------------------
# Independent derivation checking

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

    structural = {
        "Root→": _root_fwd, "Root←": _root_bwd,
        "Left→": _left_fwd, "Left←": _left_bwd,
        "Right→": _right_fwd, "Right←": _right_bwd,
        "T": _t_rewrite, "K′": _kprime, "UnquoteAnte": _unquote_ante,
    }.get(tag)
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
