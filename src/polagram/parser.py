"""Sentence-level parsing: bracketing enumeration, goal construction,
grammaticality verdicts, and the judgment of a parse against the polarity
machine.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .core import Bin, FLeaf, Formula, Sequent, Structure, DEFAULT, S0, SPLUS
from .fsm import PolarityMachine, predict, quantifier_occurrences
from .lexicon import Lexicon, tokenize
from .check import validate_derivation
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


def bracketings(tokens: Sequence[str], lex: Lexicon) -> List[Structure]:
    """All binary surface-mode trees over the tokens, one structure per tree
    shape and per choice of lexical type for each token.  The trees of one
    choice share their subtrees: each span's trees are built once."""
    if not tokens:
        raise ValueError("no tokens")
    leaf_choices = [
        [FLeaf(f, word=tok, pos=i) for f in lex.lookup(tok)]
        for i, tok in enumerate(tokens)
    ]
    out = []
    for leaves in product(*leaf_choices):
        out.extend(_shapes(0, len(tokens), leaves, {}))
    return out


def _shapes(i: int, j: int, leaves: Sequence[Structure],
            memo: Dict[Tuple[int, int], List[Structure]]) -> List[Structure]:
    """All binary surface-mode trees over ``leaves[i:j]``, built once per
    span: ``memo`` keeps the trees of each span built so far.  Module-level
    rather than nested in ``bracketings``: a recursive closure refers to
    itself through its own cell, a cycle only the collector frees."""
    trees = memo.get((i, j))
    if trees is None:
        if j - i == 1:
            trees = [leaves[i]]
        else:
            trees = [Bin(DEFAULT, left, right) for k in range(i + 1, j)
                     for left in _shapes(i, k, leaves, memo)
                     for right in _shapes(k, j, leaves, memo)]
        memo[(i, j)] = trees
    return trees


def parse_sentence(sentence: str, lex: Lexicon,
                   budget: Optional[SearchBudget] = None,
                   deadline: Optional[float] = None,
                   goals: Optional[Tuple[Formula, ...]] = None) -> ParseResult:
    """Prove every (bracketing, goal type) pair and aggregate the results.

    Readings are deduplicated across derivations in discovery order
    (bracketings in enumeration order, then goal types, then derivations).
    ``deadline`` caps the total wall time of the searches, counted from the
    call, so the enumeration of the bracketings spends it too; but the clock
    is first read after ``bracketings`` has built every tree, so the
    deadline cannot cut the enumeration itself.  On expiry the remaining
    searches are skipped and the result is marked timed out.
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
        for tree in bracketings(tokens, lex):
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


# ---------------------------------------------------------------------------
# Judging a parse

class CorpusLine(NamedTuple):
    """A sentence of a judgment corpus, its expected verdict and, when the
    corpus gives one, its expected number of readings."""

    sentence: str
    expected: str                # "ok" or "bad"
    reading_count: Optional[int] = None


class Judgment(NamedTuple):
    """A parse judged against the polarity machine.  ``admissible`` is the
    machine's reading set for the parse's tokens; ``agree`` says whether
    the two engines give the same scope orders, None when the search timed
    out, which decided nothing to agree or disagree with; ``invalid``
    counts the derivations that fail ``validate_derivation``; ``reasons``
    says why the parse is wrong, and is empty when it is right."""

    result: ParseResult
    admissible: Set[Reading]
    agree: Optional[bool]
    invalid: int
    reasons: Tuple[str, ...]


def judge(result: ParseResult, machine: PolarityMachine,
          expected: Optional[CorpusLine] = None) -> Judgment:
    """Judge ``result`` against ``machine`` and, when given, the corpus
    line ``expected`` for the same sentence.

    The parse is right when its search did not time out, every derivation
    validates, its verdict and scope orders are the machine's, and it has
    the verdict and reading count ``expected`` asks for.  A timed-out
    search is a failure, never an "ungrammatical" verdict.
    """
    admissible = predict(machine,
                         quantifier_occurrences(result.tokens, machine))
    invalid = sum(not validate_derivation(d) for d in result.derivations)
    grammatical = result.verdict == GRAMMATICAL
    got = {r.scope_order for r in result.readings}
    want = {r.scope_order for r in admissible}
    reasons = []
    if result.timed_out:
        reasons.append("search timed out")
    if invalid:
        reasons.append(f"{invalid} derivations fail validation")
    if grammatical != bool(admissible):
        reasons.append(f"verdict {result.verdict!r} but the machine admits "
                       f"{len(admissible)} orders")
    if got != want:
        reasons.append(f"scope orders {sorted(got)} but the machine admits "
                       f"{sorted(want)}")
    if expected is not None:
        if grammatical != (expected.expected == "ok"):
            reasons.append(f"corpus expects {expected.expected!r}")
        if expected.reading_count is not None \
                and len(result.readings) != expected.reading_count:
            reasons.append(f"corpus expects {expected.reading_count} "
                           f"readings, got {len(result.readings)}")
    agree = None if result.timed_out else got == want
    return Judgment(result, admissible, agree, invalid, tuple(reasons))
