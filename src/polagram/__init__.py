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
from .check import validate_derivation
from .prover import (
    Derivation, RuleName, SearchBudget, SearchResult, display_label, prove,
    derivation_from_dict, derivation_to_dict,
)
from .parser import GOAL_TYPES, GRAMMATICAL, UNGRAMMATICAL, UNKNOWN, \
    CorpusLine, Judgment, ParseResult, bracketings, judge, parse_sentence
from .readings import Reading, extract_reading, inverted_pairs, is_linear
from .fsm import (
    PolarityMachine, PolState, QuantifierShapeError, Run, accepting_runs,
    evaluation_order_ok, machine_from_lexicon, predict,
    quantifier_occurrences, quantifier_shape,
)

__version__ = "0.1.0"

# The model theory backs only ``polagram monotonic`` and its tests, so no
# parse needs it: its names load with the module on first use (PEP 562).
_SEMANTICS = frozenset({"FiniteModel", "QuantDenotation", "denotation",
                        "is_downward_entailing", "is_upward_entailing"})


def __getattr__(name):
    if name in _SEMANTICS:
        from . import semantics
        return getattr(semantics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
