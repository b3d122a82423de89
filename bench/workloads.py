"""Seeded input generators, one per workload.

A workload is an ordered list of sentences (one round of the closed loop)
plus the search budget to judge them at.  The same seed always gives the same
round; the program under test sees only the sentences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

GRID_WORDS = ("alice", "bob", "a man", "nobody", "anybody", "somebody",
              "everybody")


@dataclass(frozen=True)
class Workload:
    name: str
    sentences: Tuple[str, ...]
    # (structural steps, T insertions, derivations); None is the per-goal
    # default that ``polagram corpus`` uses
    budget: Optional[Tuple[int, int, int]] = None


def grid(seed: int) -> Workload:
    """Every ``X saw Y`` over names and quantifiers, in seeded order."""
    sentences = [f"{a} saw {b}".capitalize() for a in GRID_WORDS
                 for b in GRID_WORDS]
    random.Random(seed).shuffle(sentences)
    return Workload("grid", tuple(sentences))


def possessive(seed: int) -> Workload:
    """The corpus's licensed and unlicensed ``Q1's mother saw Q2's father``
    (nobody/anybody and its mirror image), in seeded order.

    Only the order is drawn.  Drawing one pair per stratum from all 25
    (17 licensed, 8 not) was tried: the pairs take 15.9 to 23.0 s each, so
    the choice alone moved a run's time by 5 to 12 % (quartile spread over
    ten seeds), more than the run-to-run noise this workload is meant to
    resolve."""
    sentences = ["Nobody's mother saw anybody's father",
                 "Anybody's mother saw nobody's father"]
    random.Random(seed).shuffle(sentences)
    return Workload("possessive", tuple(sentences))


def ditransitive(seed: int) -> Workload:
    """The fixed three-quantifier ditransitive at a T budget of 10; the seed
    has nothing to vary.

    At the default T budget (leaves + 2 = 7) the search finds only 2 of the
    machine's 4 readings, so the gate would fail it; at 10 it finds all 4.
    One judgment takes about a minute (55 s on a 2-CPU 2.1 GHz VM), longer
    than one run of the benchmark may last, so BENCHMARK.json leaves this
    workload out; ``run.py`` without ``--workload`` still runs it."""
    return Workload("ditransitive",
                    ("Nobody introduced everybody to somebody",), (64, 10, 16))


GENERATORS: Dict[str, Callable[[int], Workload]] = {
    "grid": grid, "possessive": possessive, "ditransitive": ditransitive}
