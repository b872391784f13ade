"""Shared test inputs: the builtins and seeded single-edge weight mutants."""

from __future__ import annotations

import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, product
from math import comb
from types import SimpleNamespace

import pytest

from hamfix import (
    Configuration,
    MomentProfile,
    SearchSpec,
    WeightEdge,
    builtin,
    enumerate_configurations,
    search,
)
from hamfix.constraints import Violation, _iter_balance, _iter_components
from hamfix.model import N_POINTS, PAIRS

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


class _SubclassEdge(WeightEdge):
    """A ``WeightEdge`` subclass: ``Configuration`` keeps no edge of it."""

    __slots__ = ()


def _normalized_edges_reference(edges) -> tuple:
    """The multiplicities of equal ``(lo, hi, w)`` summed in a ``Counter``,
    one new ``WeightEdge`` per key, sorted by key: the edges a ``Configuration``
    built from ``edges`` must equal, made without its sort-and-merge."""
    merged: Counter = Counter()
    for e in edges:
        merged[(e.lo, e.hi, e.w)] += e.mult
    return tuple(WeightEdge(lo, hi, w, m) for (lo, hi, w), m in sorted(merged.items()))


def _random_edge_input(rng: random.Random) -> tuple[list, object]:
    """Up to 12 seeded edges in shuffled order, over random vertex pairs with
    weights 1..3 and multiplicities 1..3, so equal ``(lo, hi, w)`` repeat.
    Most are ``WeightEdge``s; some are ``_SubclassEdge``s and some objects
    with only the four fields.  Returned with the same edges in the container
    ``Configuration`` gets: a list, a tuple or a generator."""
    edges = []
    for _ in range(rng.randint(0, 12)):
        fields = (*rng.choice(PAIRS), rng.randint(1, 3), rng.randint(1, 3))
        kind = rng.random()
        if kind < 0.8:
            edges.append(WeightEdge(*fields))
        elif kind < 0.9:
            edges.append(_SubclassEdge(*fields))
        else:
            edges.append(SimpleNamespace(**dict(zip(WeightEdge._fields, fields))))
    container = rng.choice((list, tuple, lambda es: (e for e in es)))
    return edges, container(edges)


def _assert_normalized(edges, given) -> tuple:
    """``Configuration``'s edges built from ``given``, which holds ``edges``,
    against ``_normalized_edges_reference(edges)``: equal, each an exact
    ``WeightEdge``, strictly increasing in ``(lo, hi, w)``, and each exact
    ``WeightEdge`` whose ``(lo, hi, w)`` no other edge shares kept as the
    same object.  Returns the configuration's edges."""
    got = Configuration(MomentProfile(tuple(range(N_POINTS))), given).edges
    assert got == _normalized_edges_reference(edges), edges
    assert all(type(e) is WeightEdge for e in got), got
    assert all(a[:3] < b[:3] for a, b in zip(got, got[1:])), got
    keys = Counter((e.lo, e.hi, e.w) for e in edges)
    alone = {e[:3]: e for e in edges if type(e) is WeightEdge and keys[e[:3]] == 1}
    assert all(e is alone[e[:3]] for e in got if e[:3] in alone), edges
    return got


#: the upper-triangular cells (i, j), i < j, of a slot matrix, in row order
CELLS = list(combinations(range(6), 2))


def _slot_matrix_sum(counts) -> int:
    """The sum, over every upper-triangular slot matrix (m_ij) with row sums
    5 - i and column sums j, of prod C(n_ij + m_ij - 1, m_ij): the leaves of
    one gap vector's walk when cell ``CELLS[k]`` allows ``counts[k]``
    weights."""

    def walk(k: int, up: list, down: list) -> int:
        if k == len(CELLS):
            return 1
        i, j = CELLS[k]
        # the last cell of a row or of a column takes all that is left
        lo = max(up[i] if j == 5 else 0, down[j] if i == j - 1 else 0)
        total = 0
        for m in range(lo, min(up[i], down[j]) + 1):
            up[i] -= m
            down[j] -= m
            total += comb(counts[k] + m - 1, m) * walk(k + 1, up, down)
            up[i] += m
            down[j] += m
        return total

    return walk(0, [5 - i for i in range(6)], list(range(6)))


@pytest.fixture(scope="session")
def closed_form_leaves():
    """The leaf count, ``final`` plus the configurations, of a search with
    every pruning rule off, in closed form: over the mirror-canonical gap
    vectors, the slot-matrix sum with every cell allowing the weights
    1..max_weight.  Without divisibility the cells do not depend on the
    gaps, so that sum is taken once."""

    def count(max_weight: int, max_width: int) -> int:
        gaps = [
            g
            for g in product(range(1, max_width + 1), repeat=5)
            if sum(g) <= max_width and g <= g[::-1]
        ]
        return len(gaps) * _slot_matrix_sum([max_weight] * len(CELLS))

    return count


def _screened_walk(spec: SearchSpec) -> tuple:
    """``spec``'s one-worker search result and the cells of every leaf of
    its walk that reaches the packed divisible-weight screen
    ``search._uneven``, in walk order.

    The walk runs in a fresh thread, so its stack depth does not depend on
    the caller's: CPython 3.11 maps a new frame-stack chunk whenever a call
    crosses the end of the current one and unmaps it on return, and with a
    chunk end at the leaf frames the all-off (2, 6) walk took 130 s, not 20 s,
    in 13.5 million page faults on a 2-vCPU Linux host."""
    leaves = []
    real = search._uneven

    def recording(acc):
        leaves.append(tuple(acc))
        return real(acc)

    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(1) as pool:
        mp.setattr(search, "_uneven", recording)
        result = pool.submit(enumerate_configurations, spec, 1).result()
    return result, leaves


@pytest.fixture(scope="session")
def all_off_walk():
    """``_screened_walk`` of the (2, 6) search with every pruning rule off,
    run once: about 30 million nodes, which the oracle test and the packed
    screen's differential test both read."""
    return _screened_walk(
        SearchSpec(
            2,
            6,
            prune_divisibility=False,
            prune_extremal=False,
            prune_gamma=False,
            prune_balance=False,
            prune_ring=False,
        )
    )


def _uneven_reference(acc) -> bool:
    """Whether the rule walk's component pass finds, for some order k, an
    isotropy component of the leaf with cells ``acc`` whose k-divisible
    weight counts are not constant: the reference for ``search._uneven``."""
    edges, weights = search._leaf_plain(acc)
    return any(
        v.rule == "ComponentRegularity" and "divisible-weight counts" in v.detail
        for v in _iter_components(edges, weights)
    )


def _random_cells(rng: random.Random, weights) -> tuple:
    """The cells of one random slot-respecting leaf, ``acc[ci]`` the sorted
    weights of cell ``CELLS[ci]``, each slot's weight drawn from
    ``weights``: the slot counts follow a random path through
    ``search._slots``, so every slot matrix can come up."""
    node = search._slots(0, tuple(5 - v for v in range(6)), tuple(range(6)))
    acc = []
    for _ in CELLS:
        m, _, _, node = rng.choice(node[0])
        acc.append(tuple(sorted(rng.choice(weights) for _ in range(m))))
    return tuple(acc)


def _orders_reference(weights) -> list[int]:
    """Every k from 2 to each weight, tried in turn: the isotropy orders of
    the positive ``weights``, without ``model._divisors``."""
    return sorted({k for w in weights for k in range(2, w + 1) if w % k == 0})


def _components_reference(edges, k: int) -> list[tuple]:
    """The components of the ``k``-divisible ``(lo, hi, w, mult)`` edges as
    ``(vertices, within, down, edges)``, one union-find per order:
    ``within[v]`` and ``down[v]`` are vertex v's slots (total / downward)
    among those edges, by lowest vertex, with each component's edges in
    input order."""
    kedges = [e for e in edges if e[2] % k == 0]
    # label[v] is the lowest vertex joined to v so far
    label = list(range(N_POINTS))
    within = [0] * N_POINTS
    down = [0] * N_POINTS
    for lo, hi, _, m in kedges:
        within[lo] += m
        within[hi] += m
        down[hi] += m
        a, b = label[lo], label[hi]
        if a != b:
            if a > b:
                a, b = b, a
            label = [a if x == b else x for x in label]
    # a component's label is its lowest vertex, met first in these scans
    members: dict[int, list[int]] = {}
    for v in range(N_POINTS):
        if within[v]:
            members.setdefault(label[v], []).append(v)
    comp_edges: dict[int, list[tuple]] = {}
    for e in kedges:
        comp_edges.setdefault(label[e[0]], []).append(e)
    return [(tuple(vs), within, down, comp_edges[root]) for root, vs in members.items()]


def _iter_components_reference(edges, weights):
    """The rule walk's isotropy-component pass built one order at a time:
    for each k of ``_orders_reference``, ascending, its own filter of the edges
    and its own union-find (``_components_reference``), then the same
    regularity, index bound, balance and mod-k rules with the same detail
    text; the reference for ``constraints._iter_components``."""
    for k in _orders_reference({e[2] for e in edges}):
        for vertices, within, down, kedges in _components_reference(edges, k):
            counts = [within[v] for v in vertices]
            d = counts[0]
            if counts.count(d) != len(counts):
                yield Violation(
                    "ComponentRegularity",
                    vertices,
                    detail=f"k={k} component {vertices}: divisible-weight counts "
                    f"{tuple(counts)} are not constant",
                )
            else:
                levels = [0] * (d + 1)
                for v in vertices:
                    levels[down[v]] += 1
                irregular = []
                if levels[0] != 1 or levels[d] != 1:
                    irregular.append(f"expected unique minimum and maximum, levels {levels}")
                for m in range(d + 1):
                    if levels[m] == 0:
                        irregular.append(f"no vertex at index level {m} of {d}")
                if levels != levels[::-1]:
                    irregular.append(f"index level counts {levels} are not symmetric under duality")
                for text in irregular:
                    detail = f"k={k} component {vertices}: {text}"
                    yield Violation("ComponentRegularity", vertices, detail=detail)
                for p, v in enumerate(vertices):
                    if down[v] > p:
                        yield Violation(
                            "IndexBound",
                            (v,),
                            detail=f"k={k} component {vertices}: vertex {v} has index level "
                            f"{down[v]} with only {p} lower vertices in the component",
                        )
                yield from _iter_balance(kedges, down, d, k, vertices)
            base = vertices[0]
            base_res = sorted([w % k for w in weights[base]])
            for v in vertices[1:]:
                res = sorted([w % k for w in weights[v]])
                if res != base_res:
                    yield Violation(
                        "ModK",
                        (base, v),
                        detail=f"weights at {base} and {v} differ mod {k}: "
                        f"{tuple(base_res)} vs {tuple(res)}",
                    )


def _component_pass_sides(edges, weights) -> tuple[list, list]:
    """The sorted violations of ``constraints._iter_components`` and of
    ``_iter_components_reference`` on the same edges and weights."""
    return sorted(_iter_components(edges, weights)), sorted(_iter_components_reference(edges, weights))
