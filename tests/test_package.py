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

modules = [m for name, m in sys.modules.items()
           if name == "polagram" or name.startswith("polagram.")]
dataclasses_seen = sorted({
    value.__qualname__ for m in modules for value in vars(m).values()
    if isinstance(value, type) and dataclasses.is_dataclass(value)})
semantics_at_import = "polagram.semantics" in sys.modules
from polagram import FiniteModel
print(json.dumps([semantics_at_import, dataclasses_seen,
                  "polagram.semantics" in sys.modules,
                  FiniteModel is sys.modules["polagram.semantics"].FiniteModel]))
"""


def test_import_loads_no_model_theory_and_generates_one_record():
    # in a fresh interpreter, since this one has loaded everything
    src = Path(polagram.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    at_import, dataclasses_seen, loaded, same = json.loads(proc.stdout)
    assert not at_import
    assert dataclasses_seen == ["ParseResult"]
    assert loaded and same


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polagram.no_such_name


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
