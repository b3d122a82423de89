"""Tests of the benchmark itself: input generation, the correctness gate,
span arithmetic and the metric names promised in BENCHMARK.json.

Run with ``python -m pytest bench`` from the repository root.
"""

import gc
import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import polagram  # noqa: E402
import pytest  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
from spans import Tracer, covered, self_times  # noqa: E402
from workloads import GENERATORS, GRID_WORDS  # noqa: E402


@pytest.fixture(scope="module")
def setup():
    lex = polagram.default_lexicon()
    return lex, polagram.machine_from_lexicon(lex)


@pytest.fixture(scope="module")
def loop(setup):
    return run.Loop(polagram, *setup)


# ---------------------------------------------------------------------------
# Generator

@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs(name):
    assert GENERATORS[name](7) == GENERATORS[name](7)


def test_grid_seed_orders_the_full_grid():
    a, b = GENERATORS["grid"](1), GENERATORS["grid"](2)
    assert len(a.sentences) == len(GRID_WORDS) ** 2
    assert sorted(a.sentences) == sorted(b.sentences)
    assert a.sentences != b.sentences


def test_possessive_has_one_licensed_and_one_unlicensed(setup):
    lex, machine = setup
    verdicts = []
    for sentence in GENERATORS["possessive"](3).sentences:
        tokens = polagram.tokenize(sentence, lex)
        verdicts.append(bool(polagram.predict(
            machine, polagram.quantifier_occurrences(tokens, machine))))
    assert sorted(verdicts) == [False, True]


# ---------------------------------------------------------------------------
# Gate

def test_gate_passes_a_correct_result(loop):
    assert loop.judge("Nobody saw anybody")["reasons"] == []


def test_gate_fails_an_injected_wrong_reading(loop, monkeypatch):
    original = polagram.parser.extract_reading

    def reversed_scope(d):
        return polagram.Reading(original(d).scope_order[::-1])

    monkeypatch.setattr(polagram.parser, "extract_reading", reversed_scope)
    reasons = loop.judge("Nobody saw anybody")["reasons"]
    assert any("scope orders" in r for r in reasons)


def test_gate_reasons(setup, loop):
    lex, machine = setup
    result = polagram.parse_sentence("Somebody saw everybody", lex)
    admissible = polagram.predict(
        machine, polagram.quantifier_occurrences(result.tokens, machine))
    expected = loop.corpus["somebody saw everybody"]
    assert gate.check(result, admissible, expected) == []
    assert gate.check(replace(result, timed_out=True), admissible, expected) \
        == ["search timed out"]
    assert gate.check(result, admissible, expected, invalid=1) \
        == ["1 derivations fail validation"]
    one = replace(result, readings=result.readings[:1])
    assert len(gate.check(one, admissible, expected)) == 2
    refuted = replace(result, verdict=polagram.UNGRAMMATICAL, readings=[])
    assert len(gate.check(refuted, admissible, expected)) == 4


# ---------------------------------------------------------------------------
# Spans

def test_covered_counts_overlap_once_and_clips():
    assert covered((0, 10), [(1, 3), (2, 5), (8, 12)]) == 6
    assert covered((0, 10), []) == 0
    assert covered((5, 6), [(0, 1), (9, 10)]) == 0


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):               # 0 .. 9
        with tracer.span("a"):              # 1 .. 4
            with tracer.span("a1"):         # 2 .. 3
                pass
        with tracer.span("b"):              # 5 .. 8
            with tracer.span("b1"):         # 6 .. 7
                pass
    own = self_times(tracer.spans)
    by_name = {s[2]: own[s[0]] for s in tracer.spans}
    assert by_name == {"root": 9 - 3 - 3, "a": 3 - 1, "a1": 1,
                       "b": 3 - 1, "b1": 1}
    assert [s[1] for s in tracer.spans] == [None, 0, 1, 0, 3]


def test_gc_spans_nest_under_the_open_span():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("outer"):
            gc.collect()
    finally:
        tracer.uninstall()
    gcs = [s for s in tracer.spans if s[2] == "gc"]
    assert gcs and all(s[1] == 0 for s in gcs)


def test_uninstall_restores_the_library():
    before = (polagram.parser.prove, polagram.fsm.predict)
    tracer = Tracer()
    run.instrument(tracer, polagram)
    assert polagram.parser.prove is not before[0]
    tracer.uninstall()
    assert (polagram.parser.prove, polagram.fsm.predict) == before


# ---------------------------------------------------------------------------
# Metric names

def test_metrics_match_benchmark_json(loop):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    setups = [(0.04, 0.0004, 0.00005)]
    untraced = loop.judge("Nobody saw anybody")
    nominal = run.end_to_end([untraced], [run.REFERENCE_S], setups,
                             [run.REFERENCE_S])
    assert list(nominal) == [m["name"] for m in spec["end_to_end"]]
    assert nominal["setup_s"][0] == pytest.approx(sum(setups[0]))
    tracer = Tracer()
    run.instrument(tracer, polagram)
    try:
        traced = loop.judge("Nobody saw anybody", tracer)
    finally:
        tracer.uninstall()
    metrics = run.per_layer([untraced, traced], tracer.spans, setups)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["prover.calls"][0] == 4
    assert metrics["parser.trees"][0] == 2
    assert metrics["prover.invalid"][0] == 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**nominal, **metrics}.items())


def test_sampled_run_takes_slices_out_of_judgments(setup):
    loop = run.Loop(polagram, *setup)
    original = polagram.parser.prove
    samples = loop.run_sampled(["Nobody saw anybody"], seconds=0)
    assert polagram.parser.prove is original
    assert len(samples) == 1 and loop.slices
    assert samples[0]["reasons"] == []
    assert 0 < samples[0]["s"] < 1


def test_times_scale_by_the_host_factor():
    sample = {"s": 0.5}
    setups = [(0.04, 0.0004, 0.00005)]
    nominal = run.end_to_end([sample], [run.REFERENCE_S], setups,
                             [run.REFERENCE_S])
    slow = run.end_to_end([sample], [2 * run.REFERENCE_S], setups,
                          [4 * run.REFERENCE_S])
    assert nominal["sentences_per_s"][0] == pytest.approx(2)
    assert slow["sentences_per_s"][0] == pytest.approx(4)
    assert slow["sentence_s.p50"][0] == pytest.approx(0.25)
    assert slow["setup_s"][0] == pytest.approx(nominal["setup_s"][0] / 4)
