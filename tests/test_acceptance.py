"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
from pathlib import Path

import pytest

from polagram import (
    GRAMMATICAL, UNGRAMMATICAL, SearchBudget, Sequent,
    FiniteModel, denotation, is_downward_entailing, is_upward_entailing,
    derivation_from_dict, derivation_to_dict, machine_from_lexicon,
    parse_formula, parse_sentence, parse_structure, predict, prove,
    quantifier_occurrences, validate_derivation,
)
from polagram.cli import main

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
# report, and a sha256 over every derivation criterion 7 audits (one
# ``json.dumps(derivation_to_dict(d), sort_keys=True)`` line each, in audit
# order).
CORPUS_JSON = Path(__file__).parent / "data" / "corpus.json"
AUDITED_DERIVATIONS_SHA256 = \
    "ea58894e2d7616d79f5119782a709b0e7a75d29ec78c0a1f29f05dcd6536fb21"


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

    # prover side, under a wall-clock cap; the default T budget cannot pay
    # for a rightmost quantifier taking widest scope over two others, so the
    # search runs with headroom
    cap = 480.0
    budget = SearchBudget(max_structural_steps=64, max_t_insertions=10,
                          max_derivations=16)
    result = parse_sentence("Nobody introduced everybody to somebody", lex,
                            budget=budget, deadline=cap)
    if result.timed_out:
        assert result.budget_exhausted
        report("criterion 3: machine admits the linear triple; prover run "
               "budget-exhausted, machine oracle discharges")
        return
    orders = {r.scope_order for r in result.readings}
    linear = (("nobody", 0), ("everybody", 2), ("somebody", 4))
    assert linear in orders
    machine_orders = {r.scope_order for r in predict(
        machine, quantifier_occurrences(result.tokens, machine))}
    assert orders == machine_orders
    report("criterion 3: linear reading derived for the ditransitive and "
           "prover agrees with the machine")


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
    # the default budget, (64, 3 leaves + 2, 16), and twice that
    assert not prove(goal, SearchBudget()).derivations
    assert not prove(goal, SearchBudget(128, 10, 32)).derivations
    report("criterion 5: the stuck negative-context sequent is underivable "
           "at default and doubled budgets")


def test_criterion_6_oracle_equivalence(parsed, machine):
    for q1 in QUANTIFIERS:
        for q2 in QUANTIFIERS:
            sentence = f"{q1} saw {q2}"
            result = parsed(sentence)
            occurrences = quantifier_occurrences(result.tokens, machine)
            machine_readings = predict(machine, occurrences)
            assert (result.verdict == GRAMMATICAL) \
                == bool(machine_readings), sentence
            assert {r.scope_order for r in result.readings} \
                == {r.scope_order for r in machine_readings}, sentence
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
            blob = json.dumps(derivation_to_dict(d), sort_keys=True)
            digest.update(blob.encode("utf-8") + b"\n")
            again = derivation_from_dict(json.loads(blob))
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
    # grammatical sentences stay grammatical when every budget is doubled
    grammatical = [s for s, verdict in ACCEPTABILITY_TABLE if verdict == "ok"]
    grammatical.append("Somebody saw everybody")
    for sentence in grammatical:
        assert parsed(sentence).verdict == GRAMMATICAL
        tokens = parsed(sentence).tokens
        doubled = SearchBudget(max_structural_steps=128,
                               max_t_insertions=2 * (len(tokens) + 2),
                               max_derivations=32)
        assert parse_sentence(sentence, lex, budget=doubled).verdict \
            == GRAMMATICAL, sentence
    report("criterion 9: corpus output byte-identical across runs and to "
           "the recorded report; "
           "grammaticality stable under doubled budgets")
