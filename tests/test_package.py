"""What ``import polagram`` loads, the records it declares, and what its
modules import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polagram
from polagram import (
    Derivation, FLeaf, NP, PolarityMachine, PolState, Reading, RuleName, Run,
    SearchBudget, SearchResult, Sequent,
)
from polagram.cli import CorpusLine


IMPORT_SCRIPT = """
import dataclasses, json, sys
import polagram

def loaded():
    return {name for name in sys.modules
            if name == "polagram" or name.startswith("polagram.")}

lex = polagram.default_lexicon()
machine = polagram.machine_from_lexicon(lex)
polagram.parse_sentence("Nobody saw anybody", lex)
parse_path = loaded()
dataclasses_seen = sorted({
    value.__qualname__ for name in parse_path
    for value in vars(sys.modules[name]).values()
    if isinstance(value, type) and dataclasses.is_dataclass(value)})
# each name of argv, a dotted path below the package, in turn: the
# modules its first use loads, and the module it comes from
first_use = []
for path in sys.argv[1:]:
    before = loaded()
    *owners, name = path.split(".")
    owner = polagram
    for attribute in owners:
        owner = getattr(owner, attribute)
    value = getattr(owner, name)
    first_use.append([path, sorted(loaded() - before), value.__module__,
                      getattr(sys.modules[value.__module__], name) is value])
print(json.dumps([sorted(parse_path), dataclasses_seen, first_use]))
"""

PARSE_PATH = ["polagram", "polagram.core", "polagram.fsm", "polagram.lexicon",
              "polagram.parser", "polagram.prover", "polagram.readings"]
_JSON_FORMS = ["structure_to_dict", "structure_from_dict", "sequent_to_dict",
               "sequent_from_dict", "derivation_to_dict",
               "derivation_from_dict"]
_MODEL_THEORY = ["FiniteModel", "QuantDenotation", "denotation",
                 "is_downward_entailing", "is_upward_entailing"]


def _first_uses(*paths):
    """Run ``IMPORT_SCRIPT`` in a fresh interpreter, since this one has
    loaded everything, on the dotted ``paths`` below the package."""
    src = Path(polagram.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT, *paths],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_model_theory_and_generates_one_record():
    # an import, the default lexicon, its machine and a parse load the
    # modules a parse runs and no other: not the checker, the judge, the
    # JSON forms or the model theory, each of which loads on first use
    paths = ["prover.validate_derivation", "judge", "Judgment", "CorpusLine",
             *_JSON_FORMS, *_MODEL_THEORY, "validate_derivation"]
    parse_path, dataclasses_seen, first_use = _first_uses(*paths)
    assert parse_path == PARSE_PATH
    assert dataclasses_seen == ["ParseResult"]
    loads = {"prover.validate_derivation": ["polagram.check"],
             "judge": ["polagram.judgment"],
             _JSON_FORMS[0]: ["polagram.jsonform"],
             _MODEL_THEORY[0]: ["polagram.semantics"]}
    homes = {"validate_derivation": "polagram.check",
             "judge": "polagram.judgment", "Judgment": "polagram.judgment",
             "CorpusLine": "polagram.judgment",
             **dict.fromkeys(_JSON_FORMS, "polagram.jsonform"),
             **dict.fromkeys(_MODEL_THEORY, "polagram.semantics")}
    assert first_use == [
        [path, loads.get(path, []), homes[path.split(".")[-1]], True]
        for path in paths]
    # the checker loads with the first use of any name that runs it
    for path, loaded in [("validate_derivation", ["polagram.check"]),
                         ("judge", ["polagram.check", "polagram.judgment"])]:
        assert _first_uses(path)[2][0][1] == loaded


def test_an_unknown_name_is_still_an_attribute_error():
    for module in (polagram, polagram.prover):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


_AXIOM_NP = Derivation(RuleName("Axiom"), Sequent(FLeaf(NP), NP))

# each record, its repr and the tuple of its fields
_RECORDS = [
    (RuleName("OverL", "c"), "RuleName(tag='OverL', mode='c')",
     ("OverL", "c")),
    (RuleName("Axiom"), "RuleName(tag='Axiom', mode='')", ("Axiom", "")),
    (_AXIOM_NP,
     "Derivation(rule=RuleName(tag='Axiom', mode=''), "
     "conclusion=<Sequent np |- np>, premises=(), site=())",
     (RuleName("Axiom"), Sequent(FLeaf(NP), NP), (), ())),
    (SearchResult([], True), "SearchResult(derivations=[], timed_out=True)",
     ([], True)),
    (SearchBudget(), "SearchBudget(max_derivations=16)", (16,)),
    (Reading((("nobody", 0), ("anybody", 2))),
     "Reading(scope_order=(('nobody', 0), ('anybody', 2)))",
     ((("nobody", 0), ("anybody", 2)),)),
    (Run((PolState.NEU, PolState.NEU), ("somebody",)),
     "Run(states=(<PolState.NEU: 's0'>, <PolState.NEU: 's0'>), "
     "moves=('somebody',))",
     ((PolState.NEU, PolState.NEU), ("somebody",))),
    (PolarityMachine(frozenset({(PolState.NEG, PolState.NEU)}),
                     (("nobody", PolState.NEU, PolState.NEG),),
                     frozenset({PolState.NEU}), PolState.NEU),
     "PolarityMachine(epsilon=frozenset({(<PolState.NEG: 's-'>, "
     "<PolState.NEU: 's0'>)}), transitions=(('nobody', "
     "<PolState.NEU: 's0'>, <PolState.NEG: 's-'>),), "
     "starts=frozenset({<PolState.NEU: 's0'>}), final=<PolState.NEU: 's0'>)",
     (frozenset({(PolState.NEG, PolState.NEU)}),
      (("nobody", PolState.NEU, PolState.NEG),),
      frozenset({PolState.NEU}), PolState.NEU)),
    (CorpusLine("Alice saw Bob", "ok", 1),
     "CorpusLine(sentence='Alice saw Bob', expected='ok', reading_count=1)",
     ("Alice saw Bob", "ok", 1)),
]


@pytest.mark.parametrize("record, text, fields", _RECORDS,
                         ids=[type(r).__name__ for r, _, _ in _RECORDS])
def test_a_record_keeps_its_behaviour(record, text, fields):
    assert repr(record) == text
    again = type(record)(*fields)
    assert again == record and again is not record
    # the one change from a dataclass: a record equals its plain tuple
    assert record == fields
    if any(isinstance(f, list) for f in fields):
        # a list field, as ``SearchResult.derivations``, leaves it unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(again) == hash(record) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], fields[0])


def test_a_machine_contains_its_quantifier_words(machine):
    # ``in`` asks for a transition, not for one of the tuple's fields
    assert "Nobody" in machine and "alice" not in machine


def test_a_budget_is_checked_when_built():
    with pytest.raises(ValueError, match="max_derivations must be at least 1"):
        SearchBudget(0)
    assert SearchBudget(max_derivations=3).max_derivations == 3


PACKAGE = Path(polagram.__file__).parent


def _imports(path):
    """The import statements of the module at ``path``, and the names it
    reads."""
    imports, read = [], set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return imports, read


def test_every_module_reads_the_names_it_imports():
    # the package's __init__ imports the names the package exports, and a
    # __future__ import switches a feature on
    unread = {}
    for path in [*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        imports, read = _imports(path)
        names = {(alias.asname or alias.name).split(".")[0]
                 for node in imports if getattr(node, "module", None)
                 != "__future__" for alias in node.names} - read
        if names and path.name != "__init__.py":
            unread[path.name] = sorted(names)
    assert unread == {}


def _package_imports(name):
    """The modules of the package that the module ``name`` imports."""
    modules = {"." * node.level + (node.module or "")
               if isinstance(node, ast.ImportFrom) else alias.name
               for node in _imports(PACKAGE / f"{name}.py")[0]
               for alias in node.names}
    return {module for module in modules
            if module.startswith((".", "polagram"))}


def test_the_checker_is_independent_of_the_search():
    # the only module of the package the checker imports is core, and the
    # search keeps no rule table of its own
    assert _package_imports("check") == {".core"}
    assert not {"_STRUCTURAL_REWRITES", "_expected_premises"} \
        & set(vars(polagram.prover))


def test_the_machine_is_independent_of_the_search():
    # the oracle and the reading type it shares with the search import
    # neither the search nor its checker
    assert _package_imports("readings") == set()
    assert _package_imports("fsm") == {".core", ".lexicon", ".readings"}


def test_a_site_is_defined_once():
    # the search, the checker and the readings read core's navigation;
    # no other module defines its own
    defined = {(path.stem, node.name)
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)
               and node.name in ("subtree", "replace", "_at", "_plug")}
    assert defined == {("core", "subtree"), ("core", "replace")}


def test_only_main_reports_a_usage_error():
    # each command raises its bad input, and main alone prints the one
    # ``error:`` line and returns the usage exit code
    reporters = {
        function.name
        for function in ast.walk(ast.parse(
            (PACKAGE / "cli.py").read_text(encoding="utf-8")))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "EXIT_USAGE"
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("error:")}
    assert reporters == {"main"}
