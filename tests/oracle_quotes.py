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
"""

from pathlib import Path

import pytest

from polagram.cli import parse_corpus
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
