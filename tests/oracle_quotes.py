"""The K′ oracle over the whole ditransitive frame, outside the tier-1 suite.

Run by its path, which pytest collects although the name does not start
with ``test_``:

    PYTHONPATH=src python -m pytest -q tests/oracle_quotes.py

On both goal types of every tree of all 125 rows of
``tests/data/ditransitive.tsv``, a move table that merges quotes innermost
first derives the same goal traces, in order, as ``QuoteAnywhereTable``,
which also quotes for K′ a pair that holds an open quote; it adds 32,250
such moves.  About 14 s on a 2-CPU VM.
"""

from pathlib import Path

from polagram.cli import parse_corpus
from test_prover import QuoteAnywhereTable, _extra_after_equal_traces

DITRANSITIVE = [line.sentence for line in parse_corpus(
    (Path(__file__).parent / "data" / "ditransitive.tsv").read_text(
        encoding="utf-8"))]


def test_merging_quotes_innermost_first_loses_nothing_on_the_frame(lex):
    assert len(DITRANSITIVE) == 125
    assert _extra_after_equal_traces(lex, QuoteAnywhereTable,
                                     DITRANSITIVE) == 32250
