"""Sentence-level parsing: bracketing enumeration, goal construction and
grammaticality verdicts.  A parse is judged against the polarity machine in
``judgment``.

A sentence is grammatical iff some binary bracketing of its words derives a
complete clause: a sequent whose antecedent uses only the surface composition
mode and whose succedent is a clause type that can be unquoted (neutral s0 or
positive s+; the negative clause type cannot be unquoted, so it is no goal).
All bracketings are tried rather than assuming a constituency, and the
resulting derivations are collapsed to their distinct scope readings.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Bin, FLeaf, Formula, Sequent, Structure, DEFAULT, S0, SPLUS
from .lexicon import Lexicon, tokenize
from .prover import (Derivation, MoveTable, SearchBudget, extract_reading,
                     prove)
from .readings import Reading, reading_to_dict

GOAL_TYPES: Tuple[Formula, ...] = (S0, SPLUS)

GRAMMATICAL = "grammatical"
UNGRAMMATICAL = "ungrammatical"
# no derivation found before the deadline: the search could not decide
UNKNOWN = "unknown"


@dataclass
class ParseResult:
    sentence: str
    tokens: List[str]
    verdict: str
    readings: List[Reading]
    derivations: List[Derivation]
    timed_out: bool = False

    def to_json_dict(self) -> dict:
        return {
            "sentence": self.sentence,
            "tokens": self.tokens,
            "verdict": self.verdict,
            "timed_out": self.timed_out,
            "derivation_count": len(self.derivations),
            "readings": [reading_to_dict(r) for r in self.readings],
        }


def bracketings(tokens: Sequence[str], lex: Lexicon, *,
                stop_at: Optional[float] = None) -> List[Structure]:
    """All binary surface-mode trees over the tokens, one structure per tree
    shape and per choice of lexical type for each token.  The trees of one
    choice share their subtrees: each span's trees are built once.

    ``stop_at`` is a ``time.monotonic()`` reading: the enumeration reads
    the clock before it builds each binary node and stops once the clock
    has reached it, returning the trees of the choices it completed."""
    if not tokens:
        raise ValueError("no tokens")
    leaf_choices = [
        [FLeaf(f, word=tok, pos=i) for f in lex.lookup(tok)]
        for i, tok in enumerate(tokens)
    ]
    out = []
    try:
        for leaves in product(*leaf_choices):
            out.extend(_shapes(0, len(tokens), leaves, {}, stop_at))
    except _Stopped:
        pass
    return out


class _Stopped(Exception):
    """The clock reached the enumeration's stop time."""


def _shapes(i: int, j: int, leaves: Sequence[Structure],
            memo: Dict[Tuple[int, int], List[Structure]],
            stop_at: Optional[float]) -> List[Structure]:
    """All binary surface-mode trees over ``leaves[i:j]``, built once per
    span: ``memo`` keeps the trees of each span built so far.  Raises
    ``_Stopped`` once the clock reaches ``stop_at``.  Module-level rather
    than nested in ``bracketings``: a recursive closure refers to itself
    through its own cell, a cycle only the collector frees."""
    trees = memo.get((i, j))
    if trees is None:
        if j - i == 1:
            trees = [leaves[i]]
        else:
            trees = []
            for k in range(i + 1, j):
                rights = _shapes(k, j, leaves, memo, stop_at)
                for left in _shapes(i, k, leaves, memo, stop_at):
                    for right in rights:
                        if stop_at is not None \
                                and time.monotonic() >= stop_at:
                            raise _Stopped
                        trees.append(Bin(DEFAULT, left, right))
        memo[(i, j)] = trees
    return trees


def parse_sentence(sentence: str, lex: Lexicon,
                   budget: Optional[SearchBudget] = None,
                   deadline: Optional[float] = None,
                   goals: Optional[Tuple[Formula, ...]] = None) -> ParseResult:
    """Prove every (bracketing, goal type) pair and aggregate the results.

    Readings are deduplicated across derivations in discovery order
    (bracketings in enumeration order, then goal types, then derivations).
    ``deadline`` caps the total wall time of the enumeration of the
    bracketings and of the searches, counted from the call: the clock is
    read before each tree node the enumeration builds and before each
    search.  On expiry the remaining trees and searches are skipped and
    the result is marked timed out.
    A timed-out parse that found no derivation has the verdict ``UNKNOWN``,
    not ``UNGRAMMATICAL``: the searches it skipped or cut might have
    derived the goal.  A NaN ``deadline`` raises ValueError before any
    search, as ``prove`` does, and so does an empty ``goals``: with no goal
    type to prove, no search could find a derivation or refute one.  No
    ``goals`` means ``GOAL_TYPES``.
    """
    if deadline is not None and math.isnan(deadline):
        raise ValueError("the deadline must be a number of seconds, not NaN")
    if goals is None:
        goals = GOAL_TYPES
    elif not goals:
        raise ValueError("no goal type to prove")
    if budget is None:
        budget = SearchBudget()
    tokens = tokenize(sentence, lex)
    derivations: List[Derivation] = []
    readings: List[Reading] = []
    timed_out = False
    stop_at = None if deadline is None else time.monotonic() + deadline
    # one collector pause for the whole parse, the enumeration of its trees
    # included, rather than one per prove call with a collection between
    # them; nothing here forms a cycle either (see prove)
    collecting = gc.isenabled()
    gc.disable()
    try:
        trees = bracketings(tokens, lex, stop_at=stop_at)
        # the deadline may have cut the enumeration before its first tree
        timed_out = stop_at is not None and time.monotonic() >= stop_at
        for tree in [] if timed_out else trees:
            # the goal types of one tree share their solved sequents and
            # antecedents' moves; the table is dropped before the next tree
            # (see MoveTable)
            table = MoveTable()
            for goal_type in goals:
                remaining = None
                if stop_at is not None:
                    remaining = stop_at - time.monotonic()
                    if remaining <= 0:
                        timed_out = True
                        break
                result = prove(Sequent(tree, goal_type), budget,
                               deadline=remaining, table=table)
                timed_out = timed_out or result.timed_out
                for d in result.derivations:
                    derivations.append(d)
                    reading = extract_reading(d)
                    if reading not in readings:
                        readings.append(reading)
            if timed_out:
                break
    finally:
        # release the last tree's table first: alive, it would be scanned
        # whole by the first collection the allocations after enable() set off
        table = None
        if collecting:
            gc.enable()
    verdict = GRAMMATICAL if derivations \
        else UNKNOWN if timed_out else UNGRAMMATICAL
    return ParseResult(sentence, tokens, verdict, readings, derivations,
                       timed_out)

