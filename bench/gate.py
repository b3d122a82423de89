"""Correctness gate: each judged sentence against the polarity machine and
the built-in corpus.

The prover's verdict and scope orders must equal the machine's ``predict``
for the same tokens, and where the sentence is listed in ``BUILTIN_CORPUS``
its expected judgment and reading count must hold too.  Every derivation
must pass ``validate_derivation``.  A timed-out search is a failure, never an
"ungrammatical" verdict.
"""

from __future__ import annotations

from typing import List

from polagram.parser import GRAMMATICAL


def check(result, admissible, expected=None, invalid: int = 0) -> List[str]:
    """Why ``result`` (a ``ParseResult``) is wrong; empty when it is right.

    ``admissible`` is the machine's reading set for the same tokens,
    ``expected`` the sentence's ``CorpusLine`` if it has one, and
    ``invalid`` how many of its derivations failed validation.
    """
    reasons = []
    if result.timed_out:
        reasons.append("search timed out")
    if invalid:
        reasons.append(f"{invalid} derivations fail validation")
    grammatical = result.verdict == GRAMMATICAL
    if grammatical != bool(admissible):
        reasons.append(f"verdict {result.verdict!r} but the machine admits "
                       f"{len(admissible)} orders")
    got = {r.scope_order for r in result.readings}
    want = {r.scope_order for r in admissible}
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
    return reasons
