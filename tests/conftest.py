"""Shared test inputs: the builtins and seeded single-edge weight mutants."""

from __future__ import annotations

import random
from itertools import product

import pytest

from hamfix import Configuration, WeightEdge, builtin

#: mutants drawn from every single-edge weight change by -2, -1, +1 or +2
MUTANTS = 3000
MUTANT_SEED = 20241018


@pytest.fixture(scope="session")
def mutant_corpus():
    """The 272 builtins (o, remark_w7, cp5 over gaps 1..3, grass(a, b, c))
    followed by ``MUTANTS`` seeded single-edge weight mutants of them."""
    base = [builtin("o"), builtin("remark_w7")]
    base += [builtin("cp5", *g) for g in product(range(1, 4), repeat=5)]
    base += [
        builtin("grass", a, b, c)
        for a in range(1, 4)
        for b in range(1, 4)
        for c in (2, 4, 6)
    ]
    universe = [
        (c, i, e.w + d)
        for c in base
        for i, e in enumerate(c.edges)
        for d in (-2, -1, 1, 2)
        if e.w + d >= 1
    ]
    mutants = []
    for c, i, w in random.Random(MUTANT_SEED).sample(universe, MUTANTS):
        edges = list(c.edges)
        e = edges[i]
        edges[i] = WeightEdge(e.lo, e.hi, w, e.mult)
        mutants.append(
            Configuration(c.profile, tuple(edges), label=f"{c.label}~e{i}w{w}", effective=c.effective)
        )
    return base + mutants
