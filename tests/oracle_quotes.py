"""The move table's oracles over the whole ditransitive frame, outside the
tier-1 suite.

Run by its path, which pytest collects although the name does not start
with ``test_``:

    PYTHONPATH=src python -m pytest -q tests/oracle_quotes.py

On both goal types of every tree of all 125 rows of
``tests/data/ditransitive.tsv``, the move table derives the same goal
traces, in order, as each of three tables that also offer moves it leaves
out, and each such table adds a pinned number of moves:

* ``QuoteAnywhereTable`` also quotes, for K′, a pair that holds an open
  quote;
* ``ClimbAnywhereTable`` also offers the Left← that moves the unit into
  the focus;
* ``UnfusedTable`` also offers the succedent-side Unquote and the box-down
  introduction apart from the diamond introduction after them.

On the same searches, ``prove`` finds the same goal traces, in order, as
``ExhaustiveSearch``, the two-phase search that expands every reachable
sequent, and every sequent ``prove`` solves holds exactly the reference's
trace set; the reference solves a pinned number of sequents more.

And the derivations ``parse_sentence`` returns for the 100 rows that do
not end in "to everybody" (tier-1 pins the other 25) are pinned by a
digest, so that a change to the search's order of derivation shows in the
rule-order variant each reading gets.
"""

from pathlib import Path

import pytest

from polagram.cli import parse_corpus
from test_fsm import _rows, _rows_digest
from test_prover import (
    ClimbAnywhereTable, QuoteAnywhereTable, UnfusedTable,
    _extra_after_equal_traces, _unreached_after_equal_traces,
)

DITRANSITIVE = [line.sentence for line in parse_corpus(
    (Path(__file__).parent / "data" / "ditransitive.tsv").read_text(
        encoding="utf-8"))]


@pytest.mark.parametrize("oracle_table,extra", [
    (QuoteAnywhereTable, 17109),
    (ClimbAnywhereTable, 16276),
    (UnfusedTable, 8528),
])
def test_the_oracle_finds_the_same_traces_on_the_frame(lex, oracle_table,
                                                       extra):
    assert len(DITRANSITIVE) == 125
    assert _extra_after_equal_traces(lex, oracle_table,
                                     DITRANSITIVE) == extra


def test_the_exhaustive_search_finds_the_same_traces_on_the_frame(lex):
    assert len(DITRANSITIVE) == 125
    assert _unreached_after_equal_traces(lex, DITRANSITIVE) == 30754


# ``_rows_digest`` over the 100 rows, in file order
NOT_TO_EVERYBODY_SHA256 = \
    "2ee561d83ff3dbf6813edd66dda11059330995e88a51291115a81b0ddedaa5c2"


def test_the_derivations_on_the_rest_of_the_frame_are_pinned(parsed,
                                                             machine):
    lines = [line for line in _rows("ditransitive.tsv")
             if not line.sentence.endswith(" to everybody")]
    assert len(lines) == 100
    assert _rows_digest(parsed, machine, lines) == NOT_TO_EVERYBODY_SHA256
