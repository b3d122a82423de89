"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
from pathlib import Path

import pytest

from polagram import (
    GRAMMATICAL, CorpusLine, SearchBudget, Sequent,
    FiniteModel, denotation, is_downward_entailing, is_upward_entailing,
    derivation_from_dict, judge,
    parse_formula, parse_sentence, parse_structure, predict, prove,
    validate_derivation,
)
from polagram.cli import main
from test_prover import _digest_line

QUANTIFIERS = ("a man", "nobody", "anybody", "somebody", "everybody")

ACCEPTABILITY_TABLE = [
    ("Alice saw Bob", "ok"),
    ("Alice saw a man's mother", "ok"),
    ("Nobody saw anybody", "ok"),
    ("Everybody saw anybody", "bad"),
    ("Alice saw anybody", "bad"),
    ("Anybody saw nobody", "bad"),
    ("Nobody's mother saw anybody's father", "ok"),
    ("Anybody's mother saw nobody's father", "bad"),
]


def report(line):
    print(f"PASS: {line}")


# The behaviour that refactors of the prover must keep: the built-in corpus
# report.  And a sha256 over every derivation criterion 7 audits (its
# ``_digest_line`` each, in audit order), which also pins the rule-order
# variant returned for each reading: the one its trace's first witnesses
# spell out (``prover._extract``).  A change to the witness order moves it
# without changing any reading.
CORPUS_JSON = Path(__file__).parent / "data" / "corpus.json"
AUDITED_DERIVATIONS_SHA256 = \
    "8eea4856ee96581f59d8a50f4cf257d58efa04ac938e95ac50cc4892bdc61a53"


def test_criterion_1_acceptability_table(parsed):
    """Default lexicon and budget reproduce all eight judgments, 8/8."""
    for sentence, expected in ACCEPTABILITY_TABLE:
        result = parsed(sentence)
        verdict = "ok" if result.verdict == GRAMMATICAL else "bad"
        assert verdict == expected, sentence
    report("criterion 1: acceptability table reproduced 8/8")


def test_criterion_2_reading_counts(parsed):
    assert len(parsed("Nobody saw anybody").readings) == 1
    assert [r.scope_order for r in parsed("Nobody saw anybody").readings] \
        == [(("nobody", 0), ("anybody", 2))]
    assert len(parsed("Somebody saw everybody").readings) == 2
    assert len(parsed("Alice saw a man's mother").readings) == 1
    report("criterion 2: reading counts 1 / 2 / 1 as required")


def test_criterion_3_ditransitive_prediction(lex, machine):
    # machine side: linear admissible for the triple; for the pair only the
    # inverse order is admissible
    triple = [("nobody", 0), ("everybody", 1), ("somebody", 2)]
    admitted = {r.scope_order for r in predict(machine, triple)}
    assert (("nobody", 0), ("everybody", 1), ("somebody", 2)) in admitted
    pair = [("nobody", 0), ("somebody", 1)]
    pair_orders = {r.scope_order for r in predict(machine, pair)}
    assert (("nobody", 0), ("somebody", 1)) not in pair_orders
    assert pair_orders == {(("somebody", 1), ("nobody", 0))}

    # prover side: a rightmost quantifier takes widest scope over two
    # others, and the search ends on its own
    sentence = "Nobody introduced everybody to somebody"
    result = parse_sentence(sentence, lex)
    assert judge(result, machine, CorpusLine(sentence, "ok", 4)).reasons \
        == ()
    linear = (("nobody", 0), ("everybody", 2), ("somebody", 4))
    assert linear in {r.scope_order for r in result.readings}
    report("criterion 3: linear reading derived for the ditransitive and "
           "prover agrees with the machine")


@pytest.mark.parametrize("sentence", [
    "Somebody introduced a man to somebody",
    "A man introduced nobody to somebody",
])
def test_ditransitives_agree_with_the_machine_uncut(lex, machine, sentence):
    # grammatical ditransitives that a cap on T insertions of the formula
    # leaves + 2 cut to no reading at all
    result = parse_sentence(sentence, lex)
    assert judge(result, machine, CorpusLine(sentence, "ok")).reasons == ()


def test_criterion_4_conversion_lemmas():
    assert prove(Sequent(parse_structure("s0"), parse_formula("s+"))).derivations
    assert prove(Sequent(parse_structure("s0"), parse_formula("s-"))).derivations
    assert prove(Sequent(parse_structure("np"),
                         parse_formula("[p]<p>np"))).derivations
    # among the ordered clause-type pairs, the two conversions above are the
    # only non-trivial derivabilities; identity pairs hold by the axiom
    underivable = [("s+", "s0"), ("s+", "s-"), ("s-", "s0"), ("s-", "s+")]
    for src, dst in underivable:
        result = prove(Sequent(parse_structure(src), parse_formula(dst)))
        assert not result.derivations, (src, dst)
    for t in ("s0", "s+", "s-"):
        assert prove(Sequent(parse_structure(t), parse_formula(t))).derivations
    report("criterion 4: neutral converts to s+ and s-, np |- [p]<p>np "
           "holds, and no other clause conversion is derivable")


def test_criterion_5_stuck_configuration(lex):
    goal = Sequent(parse_structure("np *c ((1 * <>anybody) * <>saw)", lex),
                   parse_formula("s-"))
    # no cap bounds the search, so its refutation is exact once it ends
    result = prove(goal)
    assert not result.derivations and not result.timed_out
    report("criterion 5: the stuck negative-context sequent is refuted by "
           "a search that explores every sequent it reaches")


def test_criterion_6_oracle_equivalence(parsed, machine):
    for q1 in QUANTIFIERS:
        for q2 in QUANTIFIERS:
            sentence = f"{q1} saw {q2}"
            assert judge(parsed(sentence), machine).reasons == (), sentence
    report("criterion 6: prover and machine agree on verdicts and scope "
           "orders for all 25 transitive sentences")


def test_criterion_7_proof_audit(parsed):
    # audit every derivation produced for the corpus and the schema grid,
    # then round-trip each through serialization and re-check
    sentences = [s for s, _ in ACCEPTABILITY_TABLE] + \
        ["Somebody saw everybody"] + \
        [f"{q1} saw {q2}" for q1 in QUANTIFIERS for q2 in QUANTIFIERS]
    audited = 0
    digest = hashlib.sha256()
    for sentence in sentences:
        for d in parsed(sentence).derivations:
            assert validate_derivation(d)
            line = _digest_line(d)
            digest.update(line)
            again = derivation_from_dict(json.loads(line))
            assert validate_derivation(again)
            assert again.render() == d.render()
            audited += 1
    assert audited > 0
    assert digest.hexdigest() == AUDITED_DERIVATIONS_SHA256
    report(f"criterion 7: {audited} derivations validated, and re-validated "
           f"after a serialization round trip")


@pytest.mark.parametrize("n", range(1, 7))
def test_criterion_8_monotonicity(n):
    m = FiniteModel(n)
    assert is_downward_entailing(denotation("nobody", m), m)
    assert not is_downward_entailing(denotation("somebody", m), m)
    if n >= 2:
        assert not is_downward_entailing(denotation("everybody", m), m)
    assert is_upward_entailing(denotation("somebody", m), m)
    assert not is_upward_entailing(denotation("nobody", m), m)
    if n == 6:
        report("criterion 8: monotonicity brute force confirms the "
               "denotations for domain sizes 1..6")


def test_criterion_9_determinism_and_budget_stability(lex, parsed, capsys):
    # byte-identical machine-readable output across repeated corpus runs
    code1 = main(["corpus", "--json"])
    first = capsys.readouterr().out
    code2 = main(["corpus", "--json"])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    assert first == CORPUS_JSON.read_text(encoding="utf-8")
    # grammatical sentences keep their readings when the cap on readings,
    # the one budget left, is doubled
    grammatical = [s for s, verdict in ACCEPTABILITY_TABLE if verdict == "ok"]
    grammatical.append("Somebody saw everybody")
    for sentence in grammatical:
        assert parsed(sentence).verdict == GRAMMATICAL
        doubled = parse_sentence(sentence, lex, budget=SearchBudget(32))
        assert doubled.readings == parsed(sentence).readings, sentence
    report("criterion 9: corpus output byte-identical across runs and to "
           "the recorded report; "
           "readings stable under a doubled budget")
