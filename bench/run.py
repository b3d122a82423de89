"""polagram benchmark: how fast sentences are judged, end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload grid --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seed 1        # every workload, each in its own process

Each workload runs as a closed loop with one client on one thread.  Per
sentence it does what ``polagram corpus`` does per line: ``parse_sentence``,
then ``quantifier_occurrences`` and ``predict``.  Rounds of the seeded
sentence list repeat while another is expected to end within ``--seconds``
(at least one runs), and every result goes through the correctness gate
(``gate.py``) outside the timed region.

End-to-end times are seconds at a nominal host speed.  The host this was
written on (a 2-CPU VM) speeds up and slows down by 15-25 % over seconds to
minutes as other tenants load the hardware, so 40 s runs spread that much.
An untraced run therefore times a short reference slice of fixed
pure-Python work before a ``prove`` call every 0.2 s, and one after each
set-up; the slices' time is taken out of the judgments', and each phase's
times are divided by how much slower than nominal its slices ran.  The
factors go into the results record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds: traced rounds wrap the library's functions at
the module attributes their callers look up (``spans.py``) and give the
per-layer metrics; the ratio of the two kinds of round gives the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record, with the
spans of a traced run, goes to ``bench/results/``.

The exit code is 0 when every sentence passes the gate, 1 when one fails and
2 when the source tree under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import ATTRS, END, ID, NAME, PARENT, START, Tracer, self_times
from workloads import GENERATORS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 25
# what one reference slice takes at the nominal host speed (as measured on
# the 2-CPU 2.1 GHz VM the benchmark was written on), and how often the
# loop takes one
REFERENCE_S = 0.0054
SLICE_EVERY = 0.2


# ---------------------------------------------------------------------------
# Set-up

def fresh_setup():
    """Import polagram from scratch, load the default lexicon and build the
    machine.  Returns the package, lexicon, machine and the three times."""
    for name in [n for n in sys.modules
                 if n == "polagram" or n.startswith("polagram.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    pg = importlib.import_module("polagram")
    t1 = time.perf_counter()
    lex = pg.default_lexicon()
    t2 = time.perf_counter()
    machine = pg.machine_from_lexicon(lex)
    t3 = time.perf_counter()
    return pg, lex, machine, (t1 - t0, t2 - t1, t3 - t2)


def import_checkout():
    """Put this checkout's ``src`` first on the path and check that polagram
    really comes from there; exit 2 otherwise."""
    sys.path.insert(0, str(SRC))
    try:
        pg = importlib.import_module("polagram")
    except ImportError as exc:
        problem = f"cannot import polagram from {SRC}: {exc}"
    else:
        if Path(pg.__file__).resolve().parent == SRC / "polagram":
            return
        problem = f"polagram comes from {pg.__file__}, not {SRC}"
    print(f"error: {problem}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# The closed loop

def instrument(tracer: Tracer, pg) -> None:
    def record_trees(span, _args, trees):
        span[ATTRS] = {"trees": len(trees)}

    def record_search(span, args, result):
        span[ATTRS] = {"derivations": len(result.derivations),
                       "capped": len(result.derivations)
                       >= args[1].max_derivations,
                       "exhausted": result.budget_exhausted,
                       "timed_out": result.timed_out}

    tracer.wrap(pg.parser, "parse_sentence", "parse_sentence")
    tracer.wrap(pg.parser, "tokenize", "tokenize")
    tracer.wrap(pg.parser, "bracketings", "bracketings", record_trees)
    tracer.wrap(pg.parser, "prove", "prove", record_search)
    tracer.wrap(pg.parser, "extract_reading", "extract_reading")
    tracer.wrap(pg.fsm, "quantifier_occurrences", "quantifier_occurrences")
    tracer.wrap(pg.fsm, "predict", "predict")
    tracer.install()


def reference_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the prover's
    kind (tuple keys, dict updates, a sort).  The collector is off while it
    runs, so the library's GC settings cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts = {}
        for i in range(6000):
            key = (i % 97, i % 89, (i % 50,))
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Loop:
    """The closed loop over one workload's sentences.  Each judgment is
    followed, outside the timed region, by its audit."""

    def __init__(self, pg, lex, machine, budget=None):
        import gate
        self.pg, self.lex, self.machine, self.gate = pg, lex, machine, gate
        self.budget = None if budget is None else pg.SearchBudget(*budget)
        self.corpus = {
            line.sentence.lower(): line
            for line in importlib.import_module("polagram.cli").BUILTIN_CORPUS}
        self.slices = []

    def judge(self, sentence, tracer=None) -> dict:
        """Judge one sentence, audit it and return its sample."""
        pg = self.pg
        span = tracer.span if tracer else (lambda _: contextlib.nullcontext())
        sliced = len(self.slices)
        t0 = time.perf_counter()
        with span("sentence"):
            result = pg.parser.parse_sentence(sentence, self.lex,
                                              budget=self.budget)
            occurrences = pg.fsm.quantifier_occurrences(result.tokens,
                                                        self.machine)
            admissible = pg.fsm.predict(self.machine, occurrences)
        elapsed = time.perf_counter() - t0 - sum(self.slices[sliced:])
        invalid = nodes = validated_nodes = 0
        with span("validate"):
            for d in result.derivations:
                size = sum(1 for _ in d.walk())
                nodes += size
                if pg.prover.validate_derivation(d):
                    validated_nodes += size
                else:
                    invalid += 1
        reasons = self.gate.check(result, admissible,
                                  self.corpus.get(sentence.lower()), invalid)
        return {
            "sentence": sentence, "s": elapsed, "traced": tracer is not None,
            "derivations": len(result.derivations), "nodes": nodes,
            "validated_nodes": validated_nodes, "invalid": invalid,
            "distinct": len(result.readings),
            "orders": math.factorial(len(occurrences)),
            "admissible": len(admissible), "reasons": reasons}

    def run(self, sentences, seconds, tracer=None):
        """Repeat rounds of ``sentences`` while the next one is expected to
        end within ``seconds``; at least one runs.  With a tracer, rounds
        come in pairs, untraced then traced."""
        per_step = 2 if tracer else 1
        samples = []
        gc.collect()
        start = time.perf_counter()
        rounds = 0
        while True:
            traced = tracer if rounds % 2 else None
            if traced:
                instrument(tracer, self.pg)
            try:
                samples += [self.judge(s, traced) for s in sentences]
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            if rounds % per_step:
                continue
            elapsed = time.perf_counter() - start
            if elapsed * (1 + per_step / rounds) > seconds:
                return samples

    def run_sampled(self, sentences, seconds):
        """``run`` untraced, running a reference slice before a ``prove``
        call whenever ``SLICE_EVERY`` seconds have passed since the last, so
        that the slices sample host speed evenly over time, inside long
        judgments too.  ``judge`` takes their time out of the judgment's."""
        parser = self.pg.parser
        original = parser.prove
        due = [0.0]

        def prove(*args, **kwargs):
            if time.perf_counter() >= due[0]:
                self.slices.append(reference_slice())
                due[0] = time.perf_counter() + SLICE_EVERY
            return original(*args, **kwargs)

        parser.prove = prove
        try:
            return self.run(sentences, seconds)
        finally:
            parser.prove = original


# ---------------------------------------------------------------------------
# Metrics

def p90_if_supported(xs):
    """The 90th percentile, when at least ten samples lie beyond it."""
    if len(xs) < 2:
        return None
    p90 = statistics.quantiles(xs, n=10)[8]
    return p90 if sum(x > p90 for x in xs) >= 10 else None


def host_factor(slices):
    """How much slower than nominal the host ran the reference slices."""
    return statistics.fmean(slices) / REFERENCE_S


def end_to_end(samples, slices, setups, setup_slices):
    """Times are seconds at the nominal host speed: measured seconds divided
    by the host factor of the slices taken in the same phase."""
    times = [s["s"] for s in samples]
    factor = host_factor(slices)
    return {
        "sentences_per_s": (len(times) * factor / sum(times), "1/s"),
        "sentence_s.p50": (statistics.median(times) / factor, "s"),
        "setup_s": (statistics.median(sum(t) for t in setups)
                    / host_factor(setup_slices), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(samples, spans, setups):
    """Per-sentence means over the traced rounds, from the spans recorded
    under each traced ``sentence`` span."""
    traced = [s for s in samples if s["traced"]]
    n = len(traced)
    root = {}
    for span in spans:                  # parents precede their children
        root[span[ID]] = root[span[PARENT]] if span[PARENT] is not None \
            else span
    in_sentences = [s for s in spans if root[s[ID]][NAME] == "sentence"]
    by_name = {}
    for span in in_sentences:
        by_name.setdefault(span[NAME], []).append(span)
    own = self_times(in_sentences)

    def dur(name, keep=lambda s: True):
        return sum(s[END] - s[START] for s in by_name.get(name, ())
                   if keep(s))

    def count(name, key):
        return sum(s[ATTRS][key] for s in by_name.get(name, ()))

    calls = by_name.get("prove", [])
    derived = [s for s in calls if s[ATTRS]["derivations"]]
    derivations = sum(s["derivations"] for s in traced)
    distinct = sum(s["distinct"] for s in traced)
    sentence_s = dur("sentence")
    gc_s = dur("gc")
    validate_s = sum(s[END] - s[START] for s in spans
                     if s[NAME] == "validate")
    per = "s/sentence"
    cnt = "count/sentence"
    return {
        "prover.prove_s": (dur("prove") / n, per),
        "prover.prove_s.derived": (
            dur("prove", lambda s: s[ATTRS]["derivations"]) / n, per),
        "prover.prove_s.refuted": (
            dur("prove", lambda s: not s[ATTRS]["derivations"]) / n, per),
        "prover.call_s.p50": (
            statistics.median(s[END] - s[START] for s in calls), "s"),
        "prover.calls": (len(calls) / n, cnt),
        "prover.derived_calls": (len(derived) / n, cnt),
        "prover.derived_ratio": (len(derived) / len(calls), "ratio"),
        "prover.derivations": (count("prove", "derivations") / n, cnt),
        "prover.capped_calls": (count("prove", "capped") / n, cnt),
        "prover.exhausted_calls": (count("prove", "exhausted") / n, cnt),
        "prover.timed_out": (count("prove", "timed_out") / n, cnt),
        "prover.derivation_nodes": (
            sum(s["nodes"] for s in traced) / n, cnt),
        "prover.validate_s": (validate_s / n, per),
        "prover.validated_nodes": (
            sum(s["validated_nodes"] for s in traced) / n, cnt),
        "prover.invalid": (sum(s["invalid"] for s in samples), "count"),
        "parser.trees": (count("bracketings", "trees") / n, cnt),
        "parser.bracketings_s": (dur("bracketings") / n, per),
        "parser.self_s": (sum(own[s[ID]] for s in by_name["parse_sentence"])
                          / n, per),
        "readings.extract_s": (dur("extract_reading") / n, per),
        "readings.distinct": (distinct / n, cnt),
        "readings.per_derivation": (
            distinct / derivations if derivations else 0.0, "ratio"),
        "fsm.predict_s": (dur("predict") / n, per),
        "fsm.orders_tried": (sum(s["orders"] for s in traced) / n, cnt),
        "fsm.admissible": (sum(s["admissible"] for s in traced) / n, cnt),
        "fsm.build_s": (statistics.median(t[2] for t in setups), "s"),
        "lexicon.tokenize_s": (dur("tokenize") / n, per),
        "lexicon.load_s": (statistics.median(t[1] for t in setups), "s"),
        "runtime.gc_s": (gc_s / n, per),
        "runtime.gc_collections": (len(by_name.get("gc", ())) / n, cnt),
        "runtime.gc_share": (gc_s / sentence_s, "ratio"),
        "trace.overhead": (
            sum(s["s"] for s in traced)
            / sum(s["s"] for s in samples if not s["traced"]), "ratio"),
    }


# ---------------------------------------------------------------------------
# Stamp

def commit():
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp():
    digest = hashlib.sha256()
    for path in sorted((SRC / "polagram").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), "commit": commit(),
            "source_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------

def run_one(args) -> int:
    started = stamp()
    import_checkout()
    setups, setup_slices = [], []
    for _ in range(SETUP_REPEATS):
        pg, lex, machine, times = fresh_setup()
        setups.append(times)
        setup_slices.append(reference_slice())
    work = GENERATORS[args.workload](args.seed)
    loop = Loop(pg, lex, machine, work.budget)
    if args.trace:
        tracer = Tracer()
        samples = loop.run(work.sentences, args.seconds, tracer)
        metrics = per_layer(samples, tracer.spans, setups)
        factor = 1.0
    else:
        tracer = None
        samples = loop.run_sampled(work.sentences, args.seconds)
        metrics = end_to_end(samples, loop.slices, setups, setup_slices)
        factor = host_factor(loop.slices)
    failures = [(s["sentence"], s["reasons"]) for s in samples
                if s["reasons"]]
    untraced = [s["s"] / factor for s in samples if not s["traced"]]
    extra = {"sentence_s.p90": p90_if_supported(untraced),
             "samples": len(untraced), "host_factor": factor,
             "setup_host_factor": host_factor(setup_slices),
             "failed_frac": len(failures) / len(samples)}

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"{json.dumps(started)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in extra.items():
        if value is not None:
            print(f"{name} = {value:.6g}")
    for sentence, reasons in failures:
        print(f"FAIL {sentence}: {'; '.join(reasons)}")

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": started, "sentences": list(work.sentences),
              "metrics": reported, **extra, "failures": failures}
    if tracer:
        record["span_fields"] = ["id", "parent", "name", "start", "end",
                                 "attrs"]
        record["spans"] = tracer.spans
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps({
        "correct": not failures, "attempted": len(samples),
        "failed": len(failures), "metrics": reported}))
    return 0 if not failures else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS),
                    help="one workload (default: each in its own process)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload:
        return run_one(args)
    code = 0
    for name in GENERATORS:
        code = max(code, subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
