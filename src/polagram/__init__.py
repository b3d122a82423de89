"""A prover-backed parser for a multimodal type-logical grammar of polarity
sensitivity, with a finite-state polarity machine as an independent oracle."""

from .core import (
    Atom, Bin, BoxDown, Dia, FLeaf, Formula, Over, Product, Sequent,
    Structure, Un, Under, Unit, UnitLeaf, UNIT, UNIT_LEAF,
    NP, PP, S, S0, SPLUS, SMINUS,
    CMODE, DEFAULT, PMODE, UMODE, VALUE,
    SyntaxErrorWithPos, parse_formula, parse_sequent,
    parse_structure, print_formula, print_structure,
)
from .lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon, \
    tokenize
from .prover import (
    Derivation, RuleName, SearchBudget, SearchResult, display_label, prove,
    extract_reading,
)
from .parser import GOAL_TYPES, GRAMMATICAL, UNGRAMMATICAL, UNKNOWN, \
    ParseResult, bracketings, parse_sentence
from .readings import Reading, inverted_pairs, is_linear
from .fsm import (
    PolarityMachine, PolState, QuantifierShapeError, Run, accepting_runs,
    evaluation_order_ok, machine_from_lexicon, predict,
    quantifier_occurrences, quantifier_shape,
)

__version__ = "0.1.0"

# No parse runs the derivation checker, the judge, the JSON forms or the
# model theory, so their names load with their module on first use (PEP
# 562), which binds each here for the next.  A fresh import then compiles
# only the modules a parse runs.
_DEFERRED = {
    "validate_derivation": "check",
    "CorpusLine": "judgment", "Judgment": "judgment", "judge": "judgment",
    **dict.fromkeys(("structure_to_dict", "structure_from_dict",
                     "sequent_to_dict", "sequent_from_dict",
                     "derivation_to_dict", "derivation_from_dict"),
                    "jsonform"),
    **dict.fromkeys(("FiniteModel", "QuantDenotation", "denotation",
                     "is_downward_entailing", "is_upward_entailing"),
                    "semantics"),
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value
    return value
