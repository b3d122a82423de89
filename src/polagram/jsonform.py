"""The JSON forms of structures, sequents and derivations, and their
readers.

A formula is written in the sequent syntax of ``core`` and read back with
its parser; a derivation's rule is its name as ``str`` prints it.  No parse
runs this module, so ``import polagram`` leaves it to its first use.
"""

from __future__ import annotations

from .core import (Bin, FLeaf, Sequent, Structure, Un, UnitLeaf, UNIT_LEAF,
                   parse_formula, print_formula)
from .prover import Derivation, RuleName


def structure_to_dict(st: Structure) -> dict:
    if isinstance(st, FLeaf):
        d: dict = {"leaf": print_formula(st.formula)}
        if st.word is not None:
            d["word"] = st.word
        if st.pos is not None:
            d["pos"] = st.pos
        return d
    if isinstance(st, UnitLeaf):
        return {"unit": True}
    if isinstance(st, Bin):
        return {"bin": st.mode, "left": structure_to_dict(st.left),
                "right": structure_to_dict(st.right)}
    if isinstance(st, Un):
        return {"un": st.mode, "body": structure_to_dict(st.body)}
    raise TypeError(f"not a structure: {st!r}")


def structure_from_dict(d: dict) -> Structure:
    if "leaf" in d:
        return FLeaf(parse_formula(d["leaf"]), word=d.get("word"),
                     pos=d.get("pos"))
    if "unit" in d:
        return UNIT_LEAF
    if "bin" in d:
        return Bin(d["bin"], structure_from_dict(d["left"]),
                   structure_from_dict(d["right"]))
    if "un" in d:
        return Un(d["un"], structure_from_dict(d["body"]))
    raise ValueError(f"not a structure dict: {d!r}")


def sequent_to_dict(seq: Sequent) -> dict:
    return {"antecedent": structure_to_dict(seq.antecedent),
            "succedent": print_formula(seq.succedent)}


def sequent_from_dict(d: dict) -> Sequent:
    return Sequent(structure_from_dict(d["antecedent"]),
                   parse_formula(d["succedent"]))


def derivation_to_dict(d: Derivation) -> dict:
    return {"rule": str(d.rule),
            "site": list(d.site),
            "sequent": sequent_to_dict(d.conclusion),
            "premises": [derivation_to_dict(p) for p in d.premises]}


def derivation_from_dict(d: dict) -> Derivation:
    return Derivation(RuleName.parse(d["rule"]),
                      sequent_from_dict(d["sequent"]),
                      tuple(derivation_from_dict(p) for p in d["premises"]),
                      tuple(d["site"]))
