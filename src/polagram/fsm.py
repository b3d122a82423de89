"""The finite-state polarity machine: a fast independent oracle.

States are the three clause types.  Every scope-taking item names in its type
an input polarity (the clause it takes scope over) and an output polarity
(the clause it produces); as a machine transition it runs from its output
state to its input state, following scope from widest to narrowest.  The two
silent conversions of a neutral clause into a positive or negative one are
the epsilon edges, pointing back to neutral.  Start states are the clause
types that can be unquoted (positive and neutral); the final state is the
clause type a verb returns (neutral).

A scope order is admissible when (1) it labels a path from a start state to
the final state, and (2) whenever two quantifiers take inverse rather than
linear scope, the states strictly between their two transitions include a
start state.  Verdicts and admissible orders from this machine are compared
against the prover in the test suite.
"""

from __future__ import annotations

import enum
from itertools import permutations
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from .core import Atom, Formula, Over, Under, CMODE, S0, SPLUS, SMINUS
from .lexicon import Lexicon
from .readings import Reading, inverted_pairs


class PolState(enum.Enum):
    POS = "s+"
    NEU = "s0"
    NEG = "s-"

    def __str__(self) -> str:
        return self.value


_STATE_BY_FORMULA = {SPLUS.key: PolState.POS, S0.key: PolState.NEU,
                     SMINUS.key: PolState.NEG}

EPSILON = "ε"


class QuantifierShapeError(ValueError):
    pass


def quantifier_shape(f: Formula) -> Optional[Tuple[Formula, Formula]]:
    """(output, input) clause-type slots of a scope-taking type
    ``Out /c (np \\c In)``, or None if the type has some other shape."""
    if not (isinstance(f, Over) and f.mode == CMODE):
        return None
    arg = f.argument
    if not (isinstance(arg, Under) and arg.mode == CMODE
            and isinstance(arg.argument, Atom) and arg.argument.name == "np"):
        return None
    return f.result, arg.result


class PolarityMachine(NamedTuple):
    epsilon: FrozenSet[Tuple[PolState, PolState]]
    transitions: Tuple[Tuple[str, PolState, PolState], ...]  # word, from, to
    starts: FrozenSet[PolState]
    final: PolState

    def __contains__(self, word: str) -> bool:
        return any(w == word.lower() for w, _, _ in self.transitions)


def machine_from_lexicon(lex: Lexicon) -> PolarityMachine:
    """Read the machine off the lexicon: one transition per scope-taking
    entry, from its output-polarity state to its input-polarity state.
    Raises QuantifierShapeError for a scope-taking type whose slots are
    not clause types, and for any other type with a continuation-mode
    connective: the machine would have no transition for it, and so would
    treat the word as taking no scope."""
    transitions = []
    for word in lex.words():
        for f in lex.lookup(word):
            shape = quantifier_shape(f)
            if shape is None:
                if f.has_cmode:
                    raise QuantifierShapeError(
                        f"{word!r}: a type with a continuation-mode "
                        f"connective must have the shape Out /c (np \\c "
                        f"In), got {f}")
                continue
            out_f, in_f = shape
            out_state = _STATE_BY_FORMULA.get(out_f.key)
            in_state = _STATE_BY_FORMULA.get(in_f.key)
            if out_state is None or in_state is None:
                raise QuantifierShapeError(
                    f"{word!r}: scope-taking type must link clause types, "
                    f"got {f}")
            transitions.append((word, out_state, in_state))
    return PolarityMachine(
        epsilon=frozenset({(PolState.POS, PolState.NEU),
                           (PolState.NEG, PolState.NEU)}),
        transitions=tuple(transitions),
        starts=frozenset({PolState.POS, PolState.NEU}),
        final=PolState.NEU,
    )


class Run(NamedTuple):
    """An accepting path: states[0] is the start; moves[i] labels the step
    from states[i] to states[i+1], either a quantifier word or ε."""

    states: Tuple[PolState, ...]
    moves: Tuple[str, ...]

    def fire_indices(self) -> List[int]:
        return [i for i, m in enumerate(self.moves) if m != EPSILON]

    def __str__(self) -> str:
        bits = [str(self.states[0])]
        for move, state in zip(self.moves, self.states[1:]):
            bits.append(f"-{move}-> {state}")
        return " ".join(bits)


def _eps_successors(m: PolarityMachine, state: PolState) -> List[PolState]:
    return [dst for src, dst in sorted(m.epsilon, key=lambda e: (e[0].value,
                                                                 e[1].value))
            if src == state]


def accepting_runs(m: PolarityMachine, scope_seq: Sequence[str]) -> List[Run]:
    """All start-to-final paths firing the given quantifiers in order, with
    any number of ε moves between firings and after the last one.

    ε moves before the first firing are redundant (every ε edge ends in a
    state that is itself a start state) and are not enumerated, so each
    accepting path appears exactly once.  The ε graph is acyclic (no edge
    leaves the final state), so enumeration needs no loop cap.
    """
    seq = [w.lower() for w in scope_seq]
    for w in seq:
        if w not in m:
            raise KeyError(f"no transition for {w!r}")
    runs: List[Run] = []
    for start in sorted(m.starts, key=lambda s: s.value):
        _runs(m, seq, 0, (start,), (), runs)
    return runs


def _runs(m: PolarityMachine, seq: Sequence[str], i: int,
          states: Tuple[PolState, ...], moves: Tuple[str, ...],
          runs: List[Run]) -> None:
    """Add to ``runs`` every accepting path that extends the partial run
    ``states``/``moves``, which has fired ``seq[:i]``.  Module-level rather
    than nested in ``accepting_runs``: a recursive closure refers to itself
    through its own cell, a cycle only the collector frees."""
    state = states[-1]
    if i == len(seq):
        if state == m.final:
            runs.append(Run(states, moves))
    else:
        # a word may have several scope-taking types: try each
        word = seq[i]
        for w, src, dst in m.transitions:
            if w == word and src == state:
                _runs(m, seq, i + 1, states + (dst,), moves + (word,), runs)
    if i > 0:
        for nxt in _eps_successors(m, state):
            _runs(m, seq, i, states + (nxt,), moves + (EPSILON,), runs)


def inverted_windows(reading: Reading, run: Run) -> List[tuple]:
    """(wider, narrower, window) for each pair of quantifiers whose scope
    order inverts their surface order, where the window is the states the
    run passes through strictly between the two transitions (after the
    wider one fires, up to where the narrower one fires)."""
    fires = run.fire_indices()
    assert len(fires) == len(reading.scope_order)
    fire_of = {occurrence: fires[i]
               for i, occurrence in enumerate(reading.scope_order)}
    return [(wider, narrower,
             run.states[fire_of[wider] + 1: fire_of[narrower] + 1])
            for wider, narrower in inverted_pairs(reading)]


def evaluation_order_ok(m: PolarityMachine, reading: Reading,
                        run: Run) -> bool:
    """The linear-order constraint: each inverted pair of quantifiers must
    pass through a start state strictly between its two transitions."""
    return all(any(state in m.starts for state in window)
               for _wider, _narrower, window in inverted_windows(reading, run))


def predict(m: PolarityMachine,
            quantifiers: Sequence[Tuple[str, int]]) -> Set[Reading]:
    """Admissible readings for the given quantifier occurrences: every
    permutation that labels an accepting run satisfying the evaluation-order
    constraint."""
    out: Set[Reading] = set()
    for perm in permutations(quantifiers):
        reading = Reading(tuple(perm))
        runs = accepting_runs(m, [w for w, _ in perm])
        if any(evaluation_order_ok(m, reading, run) for run in runs):
            out.add(reading)
    return out


def quantifier_occurrences(tokens: Sequence[str],
                           m: PolarityMachine) -> List[Tuple[str, int]]:
    """The scope-taking tokens of a sentence with their surface positions."""
    return [(tok, i) for i, tok in enumerate(tokens) if tok in m]
