"""Quantifier scope readings extracted from derivations.

In a complete derivation each quantifier takes scope by one elimination of
its continuation-mode functor; the nesting of those steps is the scope order,
outermost first.  A reading pairs each scoping quantifier with the surface
position of the leaf it fired from, so readings of the same sentence compare
by word order alone.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .prover import Derivation, scope_firing


class Reading(NamedTuple):
    """Scope order, widest first, as (word, surface position) pairs."""

    scope_order: Tuple[Tuple[str, Optional[int]], ...]

    def words(self) -> Tuple[str, ...]:
        return tuple(w for w, _ in self.scope_order)

    def __str__(self) -> str:
        if not self.scope_order:
            return "(no quantifiers)"
        order = " > ".join(w for w, _ in self.scope_order)
        return f"{order} ({'linear' if is_linear(self) else 'inverse'})"


def extract_reading(d: Derivation) -> Reading:
    """Read the scope order off a derivation.

    Walks root-to-leaf collecting the scope firings (``scope_firing``);
    outer applications scope over the ones nested in their argument
    branches.
    """
    order: List[Tuple[str, Optional[int]]] = []
    for node in d.walk():
        firing = scope_firing(node.rule, node.conclusion.antecedent,
                              node.site)
        if firing is not None:
            order.append(firing)
    return Reading(tuple(order))


def is_linear(r: Reading) -> bool:
    """True iff scope order matches surface order (positions increase)."""
    positions = [pos for _, pos in r.scope_order]
    return all(a < b for a, b in zip(positions, positions[1:]))


def reading_to_dict(r: Reading) -> dict:
    """The JSON form of a reading: its scope order and whether it is
    linear."""
    return {"scope": [{"word": w, "pos": p} for w, p in r.scope_order],
            "linear": is_linear(r)}


def inverted_pairs(r: Reading) -> List[Tuple[Tuple[str, Optional[int]],
                                             Tuple[str, Optional[int]]]]:
    """All (wider, narrower) pairs whose scope order inverts surface order."""
    out = []
    for i in range(len(r.scope_order)):
        for j in range(i + 1, len(r.scope_order)):
            wider, narrower = r.scope_order[i], r.scope_order[j]
            if wider[1] > narrower[1]:
                out.append((wider, narrower))
    return out
