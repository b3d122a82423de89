"""The move table's oracles over the whole ditransitive frame, outside the
tier-1 suite.

Run by its path, which pytest collects although the name does not start
with ``test_``:

    PYTHONPATH=src python -m pytest -q tests/oracle_quotes.py

On both goal types of every tree of all 125 rows of
``tests/data/ditransitive.tsv``, the move table derives the same goal
traces, in order, as ``AllGatesOpenTable``, which opens every gate of the
table's normal form at once and adds a pinned number of moves: the
succedent-side Unquote wherever the antecedent holds a value diamond,
Root→, Left→ and Right→ toward constituents with no open scope-taker, K′
quoting a pair that holds an open quote, Left← moving the unit into the
focus, and the Unquote and the box-down introduction unfused.  Since more
moves can only add traces, this checks each gate alone as well.

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

from polagram.cli import parse_corpus
from test_fsm import _rows, _rows_digest
from test_prover import (
    AllGatesOpenTable, _extra_after_equal_traces,
    _unreached_after_equal_traces,
)

DITRANSITIVE = [line.sentence for line in parse_corpus(
    (Path(__file__).parent / "data" / "ditransitive.tsv").read_text(
        encoding="utf-8"))]


def test_the_union_of_the_gates_finds_the_same_traces_on_the_frame(lex):
    assert len(DITRANSITIVE) == 125
    assert _extra_after_equal_traces(lex, AllGatesOpenTable,
                                     DITRANSITIVE) == 1026151


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
