"""Command-line front end.

Subcommands::

    parse SENTENCE        grammaticality verdict, scope readings, derivations
    sequent ANT SUCC      prove a raw sequent
    fsm QUANT [QUANT...]  polarity-machine predictions for a quantifier row
    corpus [PATH]         run prover and machine over a judgment corpus
    monotonic             monotonicity table for the quantifier denotations

Exit codes: 0 affirmative verdict / all pass, 1 negative verdict / some fail
(or the reader closed the output pipe early), 2 usage or input error, 3
unknown verdict (``parse`` and ``sequent`` only: the search timed out before
it found a derivation).  All I/O is UTF-8; a byte-order mark that opens a
lexicon or corpus file is skipped.

Corpus files hold one record per line, ``sentence<TAB>ok|bad[<TAB>count]``,
where an ``ok`` row's count is at least 1 and a ``bad`` row's is 0; ``#``
starts a comment.  ``corpus`` judges each row with ``parser.judge``.
Lexicon files follow the lexicon module's format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .core import (Sequent, SyntaxErrorWithPos, parse_formula,
                   parse_structure, print_formula)
from .fsm import (machine_from_lexicon, predict, accepting_runs,
                  evaluation_order_ok, inverted_windows)
from .lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon, tokenize
from .parser import (GOAL_TYPES, GRAMMATICAL, UNKNOWN, CorpusLine, judge,
                     parse_sentence)
from .prover import SearchBudget, prove
from .readings import extract_reading, reading_to_dict

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


# ---------------------------------------------------------------------------
# Corpus

BUILTIN_CORPUS = (
    CorpusLine("Alice saw Bob", "ok", 1),
    CorpusLine("Alice saw a man's mother", "ok", 1),
    CorpusLine("Nobody saw anybody", "ok", 1),
    CorpusLine("Everybody saw anybody", "bad"),
    CorpusLine("Alice saw anybody", "bad"),
    CorpusLine("Anybody saw nobody", "bad"),
    CorpusLine("Nobody's mother saw anybody's father", "ok"),
    CorpusLine("Anybody's mother saw nobody's father", "bad"),
    CorpusLine("Somebody saw everybody", "ok", 2),
)


def parse_corpus(text: str) -> List[CorpusLine]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        fields = line.split("\t")
        if not 2 <= len(fields) <= 3 or fields[1] not in ("ok", "bad"):
            raise ValueError(
                f"line {lineno}: expected 'sentence<TAB>ok|bad[<TAB>count]'")
        count = None
        if len(fields) == 3 and fields[2].strip():
            if not fields[2].strip().isdecimal():
                raise ValueError(f"line {lineno}: bad reading count "
                                 f"{fields[2]!r}")
            count = int(fields[2])
            if (count == 0) == (fields[1] == "ok"):
                raise ValueError(
                    f"line {lineno}: a row judged {fields[1]!r} cannot have "
                    f"{count} readings")
        lines.append(CorpusLine(fields[0].strip(), fields[1], count))
    return lines


# ---------------------------------------------------------------------------
# Shared option handling

def _add_prover_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lexicon", metavar="FILE",
                   help="lexicon file (default: built-in)")
    p.add_argument("--max-derivations", type=int, metavar="N",
                   help="scope readings per goal, one derivation each "
                   f"(default {SearchBudget().max_derivations})")
    p.add_argument("--time-limit", type=float, metavar="SECONDS",
                   help="abort search after this much wall time")


def _lexicon_from(args) -> Lexicon:
    if args.lexicon:
        with open(args.lexicon, encoding="utf-8-sig") as fh:
            return load_lexicon(fh.read())
    return default_lexicon()


def _budget_for(args) -> Optional[SearchBudget]:
    """The budget ``--max-derivations`` asks for, or None when it is not
    given, which leaves the default to ``prove``.  Raises ValueError for a
    cap below 1, and for a NaN or negative ``--time-limit`` (0 and inf are
    limits)."""
    if args.time_limit is not None and not args.time_limit >= 0:
        raise ValueError("--time-limit must be a nonnegative number of "
                         f"seconds, not {args.time_limit}")
    if args.max_derivations is None:
        return None
    return SearchBudget(args.max_derivations)


def _tokens(sentence: str, lex: Lexicon) -> List[str]:
    """The tokens of ``sentence``.  Raises ValueError when there are none,
    as ``tokenize`` raises a LexiconError (a ValueError) for an unknown
    word."""
    tokens = tokenize(sentence, lex)
    if not tokens:
        raise ValueError(f"no words in {sentence!r}")
    return tokens


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, ensure_ascii=False))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_parse(args) -> int:
    try:
        lex = _lexicon_from(args)
        _tokens(args.sentence, lex)
        budget = _budget_for(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    goals = None
    if args.goal is not None:
        try:
            goals = (parse_formula(args.goal),)
        except SyntaxErrorWithPos as exc:
            print(f"error: bad --goal: {exc}", file=sys.stderr)
            return EXIT_USAGE
    result = parse_sentence(args.sentence, lex, budget=budget,
                            deadline=args.time_limit, goals=goals)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        if result.verdict == GRAMMATICAL:
            noun = "reading" if len(result.readings) == 1 else "readings"
            print(f"grammatical, {len(result.readings)} {noun}:")
            for reading in result.readings:
                print(f"  {reading}")
        elif result.verdict == UNKNOWN:
            print("unknown (search timed out)")
        else:
            print("ungrammatical (refuted)")
        if args.show_derivation and result.derivations:
            shown = set()
            for d in result.derivations:
                reading = extract_reading(d)
                if reading in shown:
                    continue
                shown.add(reading)
                print(f"\nderivation for {reading}:")
                print(d.render())
    if result.verdict == UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK if result.verdict == GRAMMATICAL else EXIT_NEGATIVE


def cmd_sequent(args) -> int:
    try:
        lex = _lexicon_from(args)
        antecedent = parse_structure(args.antecedent, lexicon=lex)
        succedent = parse_formula(args.succedent)
        budget = _budget_for(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    goal = Sequent(antecedent, succedent)
    result = prove(goal, budget, deadline=args.time_limit)
    if args.json:
        _emit_json({
            "sequent": str(goal),
            "derivable": bool(result.derivations),
            "derivation_count": len(result.derivations),
            "timed_out": result.timed_out,
        })
    elif result.derivations:
        noun = "reading" if len(result.derivations) == 1 else "readings"
        print(f"derivable ({len(result.derivations)} {noun})")
        if args.show_derivation:
            print(result.derivations[0].render())
    elif result.timed_out:
        print("unknown (search timed out)")
    else:
        print("not derivable (refuted)")
    if result.timed_out:
        return EXIT_UNKNOWN
    return EXIT_OK if result.derivations else EXIT_NEGATIVE


def cmd_fsm(args) -> int:
    try:
        lex = _lexicon_from(args)
        machine = machine_from_lexicon(lex)
    except (LexiconError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    occurrences = []
    for i, word in enumerate(args.quantifiers):
        word = word.lower()
        if word not in machine:
            print(f"error: unknown quantifier {word!r}", file=sys.stderr)
            return EXIT_USAGE
        occurrences.append((word, i))
    admissible = sorted(predict(machine, occurrences),
                        key=lambda r: r.scope_order)
    if args.json:
        _emit_json({
            "quantifiers": [w for w, _ in occurrences],
            "admissible": [reading_to_dict(r) for r in admissible],
        })
        return EXIT_OK if admissible else EXIT_NEGATIVE
    if not admissible:
        print("no admissible scope order")
        return EXIT_NEGATIVE
    for reading in admissible:
        runs = [run for run in accepting_runs(machine, reading.words())
                if evaluation_order_ok(machine, reading, run)]
        print(f"{reading}")
        run = runs[0]
        print(f"  run: {run}")
        for wider, narrower, window in inverted_windows(reading, run):
            states = ", ".join(str(s) for s in window)
            print(f"  inverted pair {wider[0]} > {narrower[0]}: "
                  f"window passes through {states}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    try:
        lex = _lexicon_from(args)
        machine = machine_from_lexicon(lex)
        if args.path:
            with open(args.path, encoding="utf-8-sig") as fh:
                lines = parse_corpus(fh.read())
        else:
            lines = list(BUILTIN_CORPUS)
        for line in lines:
            _tokens(line.sentence, lex)
        budget = _budget_for(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows, judgments = [], []
    for line in lines:
        result = parse_sentence(line.sentence, lex, budget=budget,
                                deadline=args.time_limit)
        judgment = judge(result, machine, line)
        rows.append({
            "sentence": line.sentence, "expected": line.expected,
            # an unknown verdict matches no expectation, so the row fails
            "prover": {GRAMMATICAL: "ok", UNKNOWN: "unknown"}.get(
                result.verdict, "bad"),
            "fsm": "ok" if judgment.admissible else "bad",
            "engines_agree": judgment.agree,
            "readings": len(result.readings), "pass": not judgment.reasons,
        })
        judgments.append(judgment)
    failures = sum(not row["pass"] for row in rows)
    if args.json:
        _emit_json(rows)
    else:
        width = max((len(row["sentence"]) for row in rows), default=8)
        print(f"{'sentence':<{width}}  expect  prover   fsm  readings  result")
        for row, judgment in zip(rows, judgments):
            agree = judgment.agree
            notes = [] if agree else [
                "search timed out" if agree is None else "engines disagree"]
            if judgment.invalid:
                notes.append(
                    f"{judgment.invalid} derivations fail validation")
            print(f"{row['sentence']:<{width}}  {row['expected']:<6}  "
                  f"{row['prover']:<7}  {row['fsm']:<3}  "
                  f"{row['readings']:<8}  "
                  f"{'pass' if row['pass'] else 'FAIL'}"
                  + "".join(f" ({note})" for note in notes))
        print(f"{len(rows) - failures}/{len(rows)} passed")
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def cmd_monotonic(args) -> int:
    # only this subcommand reads the model theory, so it loads on first use
    from .semantics import FiniteModel, denotation, is_downward_entailing, \
        is_upward_entailing
    try:
        largest = FiniteModel(args.max_domain)
    except ValueError as exc:
        print(f"error: --max-domain: {exc}", file=sys.stderr)
        return EXIT_USAGE
    words = ("nobody", "somebody", "anybody", "a man", "everybody")
    rows = []
    for n in range(1, largest.domain_size + 1):
        model = FiniteModel(n)
        for word in words:
            q = denotation(word, model)
            rows.append((word, n, is_downward_entailing(q, model),
                         is_upward_entailing(q, model)))
    if args.json:
        _emit_json([{"word": w, "domain_size": n, "downward": d, "upward": u}
                    for w, n, d, u in rows])
    else:
        print("quantifier  n  downward-entailing  upward-entailing")
        for w, n, d, u in rows:
            print(f"{w:<10}  {n}  {str(d):<18}  {u}")
    return EXIT_OK


# ---------------------------------------------------------------------------

class _UsageError(Exception):
    """A command line that the argument parser rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that raises ``_UsageError`` for a bad command
    line, so that ``main`` reports it on one ``error:`` line with exit code
    2, like every other bad input, instead of exiting from inside."""

    def error(self, message: str):
        raise _UsageError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="polagram",
        description="type-logical grammar prover with a polarity machine")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a sentence")
    p.add_argument("sentence")
    p.add_argument("--goal", metavar="FORMULA",
                   help="prove this goal type only (default: "
                   + " and ".join(map(print_formula, GOAL_TYPES)) + ")")
    p.add_argument("--show-derivation", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_prover_options(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("sequent", help="prove a raw sequent")
    p.add_argument("antecedent")
    p.add_argument("succedent")
    p.add_argument("--show-derivation", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_prover_options(p)
    p.set_defaults(func=cmd_sequent)

    p = sub.add_parser("fsm", help="polarity machine predictions")
    p.add_argument("quantifiers", nargs="+", metavar="QUANT")
    p.add_argument("--json", action="store_true")
    p.add_argument("--lexicon", metavar="FILE")
    p.set_defaults(func=cmd_fsm)

    p = sub.add_parser("corpus", help="run a judgment corpus")
    p.add_argument("path", nargs="?",
                   help="corpus file (default: built-in corpus)")
    p.add_argument("--json", action="store_true")
    _add_prover_options(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("monotonic", help="monotonicity of quantifier "
                                         "denotations over finite domains")
    p.add_argument("--max-domain", type=int, default=4, metavar="N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_monotonic)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to the
        # null device, so the flush at interpreter exit cannot fail again
        # (the recipe in the documentation of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_NEGATIVE
    return status


if __name__ == "__main__":
    sys.exit(main())
