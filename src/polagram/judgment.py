"""The judgment of a parse against the polarity machine and, when a corpus
gives one, the verdict and reading count it expects.

No parse runs this module: ``polagram corpus`` and the tests import it, and
with it the derivation checker (``check``), which judges every derivation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Set, Tuple

from .check import validate_derivation
from .fsm import PolarityMachine, predict, quantifier_occurrences
from .parser import GRAMMATICAL, ParseResult
from .readings import Reading


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
