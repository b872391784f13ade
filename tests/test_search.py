"""Enumeration: pruning soundness, determinism, filters, theorem verifiers."""

from __future__ import annotations

import collections
import itertools
import json
import pickle
import random
import subprocess
import sys

import pytest

from hamfix import (
    BudgetExceeded,
    EquivariantClass,
    SearchSpec,
    SpecError,
    builtin,
    chern_restrictions,
    derive_weight_system,
    enumerate_configurations,
    flip,
    localize_integral,
    search,
    theorem4_weight_system,
    u_tilde,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)
from hamfix.constraints import C1_MAX, C1_MIN, _iter_balance, _iter_components, check_all
from hamfix.model import (
    DIM,
    N_POINTS,
    PAIRS,
    Configuration,
    MomentProfile,
    WeightEdge,
    _has_edge,
    canonicalize,
    sort_key,
)
from hamfix.search import SearchStats, _gap_vectors, o_weight_system

from conftest import CELLS, _screened_walk, _slot_matrix_sum, _uneven_reference

O_WS = (
    (1, 2, 3, 4, 5),
    (-1, 1, 3, 4, 5),
    (-4, -1, 1, 2, 5),
    (-5, -2, -1, 1, 4),
    (-5, -4, -3, -1, 1),
    (-5, -4, -3, -2, -1),
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(0, 10)
    with pytest.raises(ValueError):
        SearchSpec(5, 4)
    spec = SearchSpec(5, 10, largest_from=((5, 0),))
    assert spec.largest_from == ((0, 5),)
    for bad in (
        dict(c1=0),
        dict(c1=9),
        dict(largest_from=((0, 9),)),
        dict(largest_from=((-1, 2),)),
        dict(largest_from=((3, 3),)),
        dict(largest_from=((0, True),)),
        dict(largest_from=5),
        dict(c1="3"),
        dict(c1=True),
        dict(max_width=10.0),
        dict(node_limit=-1),
        dict(require_effective=1),
        dict(prune_gamma="false"),
        dict(prune_balance=0),
        dict(gaps=(3, 1, 1, 1, 1)),  # not mirror-canonical
        dict(gaps=(1, 1, 1, 1)),
        dict(gaps=(1, 0, 1, 1, 1)),
        dict(gaps=(1, 3, 2, 3, 2)),  # wider than 10
    ):
        with pytest.raises(SpecError):
            SearchSpec(**{"max_weight": 5, "max_width": 10, **bad})



def test_spec_record_contract():
    # a named tuple whose __new__ checks and normalizes it: unpickling and
    # _replace run the same checks, and no field can be assigned
    spec = SearchSpec(5, gaps=[1, 3, 2, 3, 1])
    assert spec.max_width == 50 and spec.gaps == (1, 3, 2, 3, 1)
    assert pickle.loads(pickle.dumps(spec)) == spec
    for fields in ((0, 10), (5, 4), (5, 10, 9), (5, 10, None, (), 1)):
        padded = SearchSpec(5, 10)[len(fields):]
        smuggled = pickle.dumps(tuple.__new__(SearchSpec, (*fields, *padded)))
        with pytest.raises(SpecError):
            pickle.loads(smuggled)
    with pytest.raises(SpecError):
        spec._replace(max_weight=0)
    with pytest.raises(SpecError):
        spec._replace(gaps=(3, 2, 3, 1, 1))
    assert spec._replace(largest_from=[(5, 0)]).largest_from == ((0, 5),)
    with pytest.raises(AttributeError):
        spec.max_weight = 6


def test_pinned_gaps_match_open_search():
    open_res = enumerate_configurations(SearchSpec(5, 10), workers=1)
    pins = sorted({c.profile.gaps for c in open_res.configurations})
    assert pins == [(1, 1, 1, 1, 1), (1, 1, 2, 1, 1), (1, 3, 2, 3, 1)]
    for gaps in pins + [(1, 1, 1, 1, 2)]:
        pinned = enumerate_configurations(SearchSpec(5, 10, gaps=gaps), workers=1)
        expected = tuple(c for c in open_res.configurations if c.profile.gaps == gaps)
        assert pinned.configurations == expected
        assert bool(expected) == (gaps != (1, 1, 1, 1, 2))
    # moved with the ring cut on downward weight products
    assert open_res.stats.to_dict() == _stats(10652, 1, 19826, 615, 440, 862, 156)


def test_gap_vectors_match_brute_force():
    for width in range(5, 13):
        expected = [
            g
            for g in itertools.product(range(1, width + 1), repeat=5)
            if sum(g) <= width and g <= g[::-1]
        ]
        assert _gap_vectors(SearchSpec(1, width)) == expected, width
    assert len(_gap_vectors(SearchSpec(1, 40))) == 330144


def test_merge_keeps_one_of_each_mirror_pair(monkeypatch):
    # a palindromic gap vector walks both members of a mirror pair; a lone
    # non-canonical leaf is dropped, not replaced by a flip the gate did not accept
    cp5 = builtin("cp5", 1, 1, 1, 1, 1)
    edges = (WeightEdge(0, 1, 7),) + cp5.edges[1:]
    c = Configuration(cp5.profile, edges, label=cp5.label, effective=cp5.effective)
    assert c.profile.gaps == (1, 1, 1, 1, 1) and c != flip(c)
    for leaves, kept in (([c, flip(c)], (canonicalize(c),)), ([c], ())):
        monkeypatch.setattr(search, "_search_chunk", lambda spec, gaps: (leaves, SearchStats()))
        assert enumerate_configurations(SearchSpec(5, 5), workers=1).configurations == kept


def test_o_weight_system_frozen():
    assert o_weight_system() == O_WS
    assert derive_weight_system(builtin("o")).weights == O_WS


def test_enumerate_weight_one_is_empty():
    # with every weight 1 the smallest-weight balance cannot hold
    res = enumerate_configurations(SearchSpec(1, 6), workers=1)
    assert res.configurations == ()


def test_enumerate_minimal_width_gives_projective_space():
    res = enumerate_configurations(SearchSpec(5, 5), workers=1)
    assert len(res.configurations) == 1
    assert sort_key(res.configurations[0]) == sort_key(builtin("cp5", 1, 1, 1, 1, 1))


def test_enumerate_max_weight_4_narrow_is_empty():
    # sub-bound sanity slice of the weights<=4 emptiness claim
    res = enumerate_configurations(SearchSpec(4, 12), workers=1)
    assert res.configurations == ()


def test_enumerate_largest_from_c1_filter():
    res = enumerate_configurations(
        SearchSpec(5, 10, largest_from=((0, 5),), c1=3), workers=1
    )
    assert res.weight_systems() == [O_WS]
    for c in res.configurations:
        assert c.profile.gaps == (1, 3, 2, 3, 1)


# (nodes, extremal, gamma, slot, balance, ring, final) at (2,6): a pruning
# change that moves these must update the pin and say why.  The balance-on
# rows moved when the floor weight was allowed on consecutive cells only, all
# rows when the short slot cut kept room for vertex 4's upward slot, and all
# but the ring row when the ring cut came in
_STATS_2_6 = {
    None: (35, 0, 18, 3, 0, 4, 0),
    "divisibility": (543, 0, 336, 66, 0, 177, 0),
    "extremal": (35, 0, 21, 3, 1, 4, 0),
    "gamma": (230, 0, 0, 17, 0, 31, 10),
    "balance": (6326, 0, 3518, 180, 0, 5, 853),
    "ring": (67, 0, 24, 3, 0, 0, 4),
}


def _stats(nodes, extremal, gamma, slot, balance, ring, final):
    pruned = {
        "extremal": extremal,
        "gamma": gamma,
        "slot": slot,
        "balance": balance,
        "ring": ring,
        "final": final,
    }
    return {"nodes": nodes, "pruned": pruned}


@pytest.mark.parametrize("toggle", ["divisibility", "extremal", "gamma", "balance", "ring"])
def test_single_toggle_soundness_small(toggle):
    base = enumerate_configurations(SearchSpec(2, 6), workers=1)
    alt = enumerate_configurations(
        SearchSpec(2, 6, **{f"prune_{toggle}": False}), workers=1
    )
    assert alt.configurations == base.configurations
    assert base.stats.to_dict() == _stats(*_STATS_2_6[None])
    assert alt.stats.to_dict() == _stats(*_STATS_2_6[toggle])


#: the rules of the rule walk's isotropy-component pass
_COMPONENT_RULES = ("ComponentRegularity", "IndexBound", "SmallestWeightBalance", "ModK")


#: the component rules whose rejections check_all samples rather than runs on all
_SAMPLED_RULES = ("ComponentRegularity", "SmallestWeightBalance", "ModK")


def _walk_leaves(spec):
    """Every leaf the DFS reaches for ``spec``, as ``(phi, acc, seen)`` in the
    order ``_leaf`` receives them, and the search result."""
    leaves = []
    real_leaf = search._leaf

    def recording_leaf(spec, phi, acc, seen):
        leaves.append((phi, tuple(acc), seen))
        return real_leaf(spec, phi, acc, seen)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_leaf", recording_leaf)
        res = enumerate_configurations(spec, workers=1)
    return leaves, res


def _globally_balanced(edges):
    return not any(_iter_balance(edges, range(N_POINTS), DIM, None, range(N_POINTS)))


def _random_fill(rng, maxw):
    """Seeded random cells of a slot-respecting leaf: each cell takes a slot
    count from the slot walk and that many weights from 1..maxw."""
    acc, slots = [], search._slots(0, (5, 4, 3, 2, 1, 0), (0, 1, 2, 3, 4, 5))
    for _ in PAIRS:
        m, _, _, slots = rng.choice(slots[0])
        acc.append(tuple(sorted(rng.randint(1, maxw) for _ in range(m))))
    return acc


def test_packed_screen_matches_component_pass(all_off_walk):
    # the packed screen rejects a leaf exactly when the component pass finds
    # a component whose divisible-weight counts are not constant: on every
    # leaf that reaches it at (5,10), (4,10) and in the all-off (2,6) walk,
    # and on seeded random slot-respecting fills with weights up to 12
    sources = {
        "(5,10)": _screened_walk(SearchSpec(5, 10))[1],
        "(4,10)": _screened_walk(SearchSpec(4, 10))[1],
        "all-off (2,6)": all_off_walk[1],
    }
    rng = random.Random(20261020)
    sources["random"] = [_random_fill(rng, rng.randint(1, 12)) for _ in range(20000)]
    for name, leaves in sources.items():
        sides = collections.Counter()
        for acc in leaves:
            uneven = _uneven_reference(acc)
            assert search._uneven(acc) == uneven, (name, acc)
            sides[uneven] += 1
        assert sides[True] > 0 and sides[False] > 0, (name, sides)


def test_balance_holds_iff_smallest_weight_on_consecutive_vertices(mutant_corpus):
    # the lemma the balance cut rests on: with vertex v at level v, the
    # smallest weight's slots leaving level m equal those entering level m + 1
    # for every m exactly when every smallest-weight edge joins v and v + 1
    pool = enumerate_configurations(SearchSpec(5, 10), workers=1).configurations
    sides = collections.Counter()
    for c in [*mutant_corpus, *pool]:
        edges = [(e.lo, e.hi, e.w, e.mult) for e in c.edges]
        wm = min(w for _, _, w, _ in edges)
        consecutive = all(hi == lo + 1 for lo, hi, w, _ in edges if w == wm)
        assert _globally_balanced(edges) == consecutive, c.label
        sides[consecutive] += 1
    assert sides[True] > 0 and sides[False] > 0, sides


@pytest.mark.parametrize("balance", [True, False])
def test_leaf_component_screen_matches_check_all(balance):
    # every leaf the DFS reaches: with balance on, the plan has put the
    # leaf's smallest weight on consecutive cells only and at least once, so
    # the global smallest-weight rule holds and the floor-slot count the walk
    # hands _leaf counts those slots; with it off (floor 1), that count is the
    # leaf's weight-1 slots on cells (i, j) with j > i + 1, and _leaf rejects
    # exactly the leaves whose weight-1 slots break the global rule.  The
    # balance-on walk reaches exactly the balance-off leaves that pass it.
    # The component pass on the raw cells rejects exactly the leaves whose
    # configuration has a component violation in check_all, and names one of
    # them.  check_all runs on every leaf the pass accepts or rejects as
    # IndexBound, and on a seeded sample of the far more numerous rejections
    # by each other rule
    leaves, res = _walk_leaves(SearchSpec(5, 10, prune_balance=balance))
    assert len(leaves) > res.stats.pruned["final"] > 0
    # (leaf passes the floor-slot screen, leaf holds a weight-1 slot) -> leaves
    kinds = collections.Counter()
    # the rule of the pass's first violation (None: accepted) -> leaves
    by_rule = collections.defaultdict(list)
    balanced = []
    for phi, acc, seen in leaves:
        edges, weights = search._leaf_plain(acc)
        globally = _globally_balanced(edges)
        wm = min(w for _, _, w, _ in edges)
        has_one = wm == 1
        if balance:
            floor_slots = [hi == lo + 1 for lo, hi, w, _ in edges if w == wm]
            assert globally and all(floor_slots) and seen == len(floor_slots), acc
        else:
            stray = sum(w == 1 and hi > lo + 1 for lo, hi, w, _ in edges)
            assert seen == stray and (not seen) == (not has_one or globally), acc
            if globally:
                balanced.append((phi, acc))
        kinds[not seen, has_one] += 1
        first = next(_iter_components(edges, weights), None)
        by_rule[None if first is None else first.rule].append((phi, edges, weights, first))
    if not balance:
        on, _ = _walk_leaves(SearchSpec(5, 10))
        assert on and sorted((phi, acc) for phi, acc, _ in on) == sorted(balanced)
    assert None in by_rule and len(by_rule) > 1
    rng = random.Random(20261019)
    for rule, group in by_rule.items():
        if rule in _SAMPLED_RULES:
            group = rng.sample(group, min(len(group), 150))
        for phi, edges, weights, first in group:
            config = Configuration(MomentProfile(phi), tuple(WeightEdge(*e) for e in edges))
            assert tuple(tuple(sorted(ws)) for ws in weights) == config.weight_system.weights
            # the global balance rule shares its name; its detail says "globally"
            expected = [
                v
                for v in check_all(config).violations
                if v.rule in _COMPONENT_RULES and not v.detail.startswith("globally")
            ]
            assert (first is None) == (not expected), edges
            assert first is None or first in expected, edges
    if not balance:
        # rejected by the screen, passed with a weight-1 slot, no weight-1 slot
        assert kinds == {(False, True): 24945, (True, True): 160, (True, False): 391}
        assert res.stats.pruned["final"] >= kinds[False, True]
        assert {rule: len(group) for rule, group in by_rule.items()} == {
            None: 1538,
            "ComponentRegularity": 17253,
            "IndexBound": 14,
            "SmallestWeightBalance": 4529,
            "ModK": 2162,
        }


def test_toggle_soundness_nonempty_pool():
    base = enumerate_configurations(SearchSpec(5, 5), workers=1)
    assert base.configurations  # the projective-space point is in the pool
    no_gamma = enumerate_configurations(SearchSpec(5, 5, prune_gamma=False), workers=1)
    assert no_gamma.configurations == base.configurations
    no_l10 = enumerate_configurations(SearchSpec(5, 6, prune_extremal=False), workers=1)
    with_l10 = enumerate_configurations(SearchSpec(5, 6), workers=1)
    assert no_l10.configurations == with_l10.configurations
    pin = (1, 1, 2, 1, 1)  # its one member has first-Chern multiple 5
    pinned = enumerate_configurations(SearchSpec(5, 10, gaps=pin), workers=1)
    assert len(pinned.configurations) == 1
    no_gamma = enumerate_configurations(SearchSpec(5, 10, gaps=pin, prune_gamma=False), workers=1)
    assert no_gamma.configurations == pinned.configurations


def _localization_certificate(c):
    """Localization, a check from outside the edge rules: every monomial
    c_m u^k of degree below the manifold's (m + k <= 4, c_0 = 1) integrates
    to exactly 0, and the symplectic volume integral of u^5 is returned."""
    ws = c.weight_system
    u = u_tilde(c)
    chern = [EquivariantClass(0, (1,) * N_POINTS)]
    chern += [chern_restrictions(ws, m) for m in range(1, DIM)]
    monomials = [chern[m] * u**k for m in range(DIM) for k in range(DIM - m)]
    assert len(monomials) == 15
    assert all(localize_integral(x, ws) == 0 for x in monomials)
    return localize_integral(u**DIM, ws)


def test_balance_toggle_soundness_nonempty_pool():
    # the leaf screen alone against the in-DFS balance cuts, on 4 configurations
    base = enumerate_configurations(SearchSpec(5, 10), workers=1)
    no_balance = enumerate_configurations(SearchSpec(5, 10, prune_balance=False), workers=1)
    assert len(base.configurations) == 4
    assert no_balance.configurations == base.configurations
    assert no_balance.stats.nodes == 335253  # the walk without in-DFS balance cuts
    assert no_balance.stats.pruned["balance"] == 0
    # every member carries the localization certificate, with volume > 0
    assert [_localization_certificate(c) for c in base.configurations] == [1, 2, 18, 18]


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(5, 10, largest_from=((0, 5),), c1=3),
        SearchSpec(5, 8, require_effective=True),
        SearchSpec(7, 14, gaps=(1, 3, 2, 3, 1), require_effective=True),
    ],
    ids=["5-10-largest-c1", "5-8-effective", "7-14-pinned"],
)
def test_balance_cut_matches_leaf_screen(spec):
    # the per-cell balance cut and floor-aware targets against the leaf screen
    # alone, on filtered and pinned searches that emit configurations
    fast = enumerate_configurations(spec, workers=1)
    slow = enumerate_configurations(spec._replace(prune_balance=False), workers=1)
    assert fast.configurations and fast.configurations == slow.configurations
    assert fast.stats.nodes < slow.stats.nodes and slow.stats.pruned["balance"] == 0


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(5, 10),
        SearchSpec(
            5, 10, largest_from=((0, 5), (1, 3), (2, 4)), require_effective=True, gaps=(1, 3, 2, 3, 1)
        ),
        SearchSpec(
            7, 14, largest_from=((0, 5), (1, 3), (2, 4)), require_effective=True, gaps=(2, 3, 4, 3, 2)
        ),
    ],
    ids=["5-10", "thm4-1-3", "thm4-2-3"],
)
def test_ring_cut_matches_leaf_ring_test(spec):
    # the per-cell cut on vertex j's downward weight product against the
    # leaf's ring_presentation alone: a partial product that does not divide
    # j's gap product only grows into a full one that does not
    fast = enumerate_configurations(spec, workers=1)
    slow = enumerate_configurations(spec._replace(prune_ring=False), workers=1)
    assert fast.configurations and fast.configurations == slow.configurations
    assert fast.stats.nodes < slow.stats.nodes
    assert fast.stats.pruned["ring"] > 0 == slow.stats.pruned["ring"]


def _reachable_sums(up, down, floor, maxw):
    """Every sum of ``up`` weights minus ``down`` weights, each in [floor, maxw]."""
    ws = range(floor, maxw + 1)
    ups = {sum(c) for c in itertools.combinations_with_replacement(ws, up)}
    downs = {sum(c) for c in itertools.combinations_with_replacement(ws, down)}
    return {a - b for a in ups for b in downs}


@pytest.mark.parametrize(
    "spec",
    [SearchSpec(5, 16), SearchSpec(5, 12, prune_extremal=False)],
    ids=["5-16", "5-12-no-extremal"],
)
def test_narrowed_targets_match_fresh_targets(spec, monkeypatch):
    # each floor re-tests only the target vectors the floor below kept; they
    # must be exactly those a fresh computation at that floor keeps: every
    # integral first-Chern multiple, against the weight sums each vertex's
    # slots reach (an extremal edge carrying its gap when that rule is on)
    calls = collections.defaultdict(list)
    real = search._in_reach

    def recording(spec, gaps, targets, floor):
        got = real(spec, gaps, targets, floor)
        calls[gaps].append((floor, got))
        return got

    monkeypatch.setattr(search, "_in_reach", recording)
    enumerate_configurations(spec, workers=1)
    maxw = spec.max_weight
    reach = {}
    kinds = collections.Counter()
    for gaps in _gap_vectors(spec):
        if spec.prune_extremal and max(gaps[0], gaps[4]) > maxw:
            assert gaps not in calls
            continue
        phi = (0, *itertools.accumulate(gaps))
        walked = calls[gaps]
        assert [floor for floor, _ in walked] == list(range(1, len(walked) + 1))
        for floor, got in walked:
            want = []
            for k in range(C1_MIN, C1_MAX + 1):
                if k * sum(phi) % N_POINTS:
                    continue
                targets = tuple(k * sum(phi) // N_POINTS - k * p for p in phi)
                fits = True
                for v in range(N_POINTS):
                    up, down, fixed = DIM - v, v, 0
                    if spec.prune_extremal and v == 0:
                        up, fixed = up - 1, gaps[0]
                    elif spec.prune_extremal and v == DIM:
                        down, fixed = down - 1, -gaps[4]
                    if (up, down, floor) not in reach:
                        reach[up, down, floor] = _reachable_sums(up, down, floor, maxw)
                    fits = fits and targets[v] - fixed in reach[up, down, floor]
                if fits:
                    want.append(targets)
            assert got == want, (gaps, floor)
        # the walk stops at its last floor or at the first without targets
        last = min(gaps[0], gaps[4]) if spec.prune_extremal else maxw
        assert walked[-1][0] == last or not walked[-1][1], gaps
        sizes = [len(got) for _, got in walked]
        kinds["walked"] += len(walked)
        kinds["narrowed"] += sum(0 < b < a for a, b in zip(sizes, sizes[1:]))
        kinds["emptied"] += len(walked) > 1 and not sizes[-1]
    assert all(kinds.values()), kinds


@pytest.mark.parametrize(
    "spec, sample",
    [
        (SearchSpec(5, 16), None),
        (SearchSpec(6, 24), 300),
        (SearchSpec(5, 12, prune_extremal=False), None),
        (SearchSpec(5, 8, prune_divisibility=False), None),
        (SearchSpec(5, 12, prune_balance=False), None),
    ],
    ids=["5-16", "6-24-sample", "5-12-no-extremal", "5-8-no-divisibility", "5-12-no-balance"],
)
def test_cell_plan_matches_its_definition(spec, sample):
    # every plan entry against a reference that takes each allowed set from
    # the divisibility/extremal/floor rule and each bound from its definition,
    # a (min, max) over explicitly listed cells, (0, 0) when none allows a weight
    maxw, balance = spec.max_weight, spec.prune_balance
    kinds = collections.Counter()
    # the gap vectors _search_gap plans, each at every floor
    planned = [g for g in _gap_vectors(spec) if not spec.prune_extremal or max(g[0], g[4]) <= maxw]
    if sample is not None:
        planned = random.Random(0).sample(planned, sample)
    for gaps, floor in itertools.product(planned, range(1, maxw + 1)):
        phi = (0, *itertools.accumulate(gaps))
        allowed = {}
        for i, j in PAIRS:
            if spec.prune_extremal and (i, j) in ((0, 1), (DIM - 1, DIM)):
                ws = {phi[j] - phi[i]}
            elif spec.prune_divisibility:
                ws = {w for w in range(1, maxw + 1) if (phi[j] - phi[i]) % w == 0}
            else:
                ws = set(range(1, maxw + 1))
            above = balance and j > i + 1
            allowed[i, j] = sorted(w for w in ws if w > floor or (w == floor and not above))
        floor_cells = [
            ci for ci, (i, j) in enumerate(PAIRS) if j == i + 1 and floor in allowed[i, j]
        ]
        plan, last_floor = search._cell_plan(spec, gaps, phi, floor)
        if balance and not floor_cells:
            assert (plan, last_floor) == (None, None), (gaps, floor)
            kinds["dead"] += 1
            continue
        assert last_floor == (floor_cells[-1] if balance else None), (gaps, floor)
        kinds["live"] += 1

        def span(cells):
            ws = [w for cell in cells for w in allowed[cell]]
            return (min(ws), max(ws)) if ws else (0, 0)

        assert len(plan) == len(PAIRS)
        for (i, j), entry in zip(PAIRS, plan):
            ei, ej, tables, *bounds = entry
            assert (ei, ej) == (i, j)
            # the size-1 multisets are the allowed weights, each counted if it
            # is the floor and each its own product
            counted = floor if balance or j > i + 1 else 0
            _, singles, counts, prods = tables[1]
            assert singles == tuple((w,) for w in allowed[i, j]), (gaps, floor, i, j)
            assert counts == tuple(int(w == counted) for w in allowed[i, j])
            assert prods == tuple(allowed[i, j])
            row = span([(i, l) for l in range(j + 1, N_POINTS)])
            up_j = span([(j, l) for l in range(j + 1, N_POINTS)])
            down = span([(l, j) for l in range(i + 1, j)])
            want = [*row, (DIM - j) * up_j[0], (DIM - j) * up_j[1], *down]
            assert bounds == want, (gaps, floor, i, j)
            kinds["empty cells"] += not allowed[i, j]
    # with divisibility off, cell (1, 2) allows every weight from the floor up
    assert kinds["live"] and kinds["empty cells"], kinds
    assert bool(kinds["dead"]) == (balance and spec.prune_divisibility), kinds


def test_slot_walk_is_the_slot_matrices():
    # the complete paths through _slots are exactly the upper-triangular slot
    # matrices with row sums 5 - i and column sums j, as many as conftest's
    # independent count, and a cell closing a row or column that a complete
    # path reaches cuts nothing: its one candidate is forced
    paths = []

    def walk(ci, node, cells):
        if ci == len(PAIRS):
            assert node == ((), 0)
            paths.append(cells)
            return
        moves, cut = node
        i, j = PAIRS[ci]
        if j == N_POINTS - 1 or i == j - 1:
            assert cut == 0, (PAIRS[ci], cells)
        assert [m for m, *_ in moves] == sorted({m for m, *_ in moves})
        for m, _, _, after in moves:
            walk(ci + 1, after, {**cells, (i, j): m})

    up, down = tuple(DIM - v for v in range(N_POINTS)), tuple(range(N_POINTS))
    walk(0, search._slots(0, up, down), {})
    assert len(paths) == _slot_matrix_sum([1] * len(CELLS)) == 391
    for cells in paths:
        rows = [sum(cells[i, j] for j in range(i + 1, N_POINTS)) for i in range(N_POINTS)]
        cols = [sum(cells[i, j] for i in range(j)) for j in range(N_POINTS)]
        assert (rows, cols) == (list(up), list(down)), cells
    # one surplus slot at any vertex leaves the totals unequal: no matrix
    for v in range(N_POINTS):
        up_v = (*up[:v], up[v] + 1, *up[v + 1 :])
        down_v = (*down[:v], down[v] + 1, *down[v + 1 :])
        assert search._slots(0, up_v, down) is None and search._slots(0, up, down_v) is None, v


def test_full_brute_force_equivalence_tiny(closed_form_leaves):
    pruned = enumerate_configurations(SearchSpec(1, 6), workers=1)
    brute = enumerate_configurations(
        SearchSpec(
            1,
            6,
            prune_divisibility=False,
            prune_extremal=False,
            prune_gamma=False,
            prune_balance=False,
            prune_ring=False,
        ),
        workers=1,
    )
    assert pruned.configurations == brute.configurations
    assert brute.stats.nodes >= pruned.stats.nodes
    # the DFS without targets, with the raw leaf screen on
    assert brute.stats.to_dict() == _stats(11040, 0, 0, 388, 0, 0, 1564)
    # every leaf the slot cuts let through, against the closed form
    assert brute.stats.pruned["final"] + len(brute.configurations) == closed_form_leaves(1, 6)


def test_divisibility_walk_matches_closed_form():
    # with divisibility the only rule, each cell (i, j) of the pinned
    # (1,1,1,1,1) walk allows the divisors of its gap j - i up to the weight;
    # every leaf the walk reaches, against the closed form over those counts
    spec = SearchSpec(
        5,
        5,
        gaps=(1, 1, 1, 1, 1),
        prune_extremal=False,
        prune_gamma=False,
        prune_balance=False,
        prune_ring=False,
    )
    res = enumerate_configurations(spec, workers=1)
    counts = [sum((j - i) % w == 0 for w in range(1, 6)) for i, j in CELLS]
    assert len(res.configurations) == 1
    assert res.stats.pruned["final"] + 1 == _slot_matrix_sum(counts) == 395_190


def test_import_loads_no_process_pool():
    # the worker pool is imported only by a search with more than one worker,
    # so a one-worker run or a CLI call does not pay for it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hamfix; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "'hamfix.search'" in proc.stdout
    assert "'concurrent.futures'" not in proc.stdout


def test_determinism_across_workers():
    # two filtered searches that emit configurations through the leaf gate;
    # the stats moved with the ring cut on downward weight products
    for spec, stats in (
        (SearchSpec(5, 8, require_effective=True), (1409, 0, 3155, 71, 0, 204, 10)),
        (SearchSpec(5, 10, largest_from=((0, 5),), c1=3), (5859, 1, 11747, 337, 48, 622, 47)),
    ):
        docs = []
        for workers in (1, 2, 4):
            res = enumerate_configurations(spec, workers=workers)
            docs.append(json.dumps(res.to_dict(), sort_keys=True))
        assert docs[0] == docs[1] == docs[2]
        assert len(res.configurations) == 2
        assert res.stats.to_dict() == _stats(*stats)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_configurations(SearchSpec(4, 12, node_limit=50), workers=1)


def test_node_limit_counts_merged_total_for_any_worker_count():
    full = enumerate_configurations(SearchSpec(4, 8), workers=1)
    total = full.stats.nodes
    for workers in (1, 2):
        with pytest.raises(BudgetExceeded):
            enumerate_configurations(SearchSpec(4, 8, node_limit=total - 1), workers=workers)
        res = enumerate_configurations(SearchSpec(4, 8, node_limit=total), workers=workers)
        assert res.stats.nodes == total
        assert res.configurations == full.configurations


def test_emitted_configurations_are_canonical_and_valid():
    from hamfix import total_chern
    from hamfix.constraints import check_all

    res = enumerate_configurations(SearchSpec(5, 8), workers=1)
    assert res.configurations
    for c in res.configurations:
        assert check_all(c).passed
        assert sort_key(c) <= sort_key(flip(c))
        assert all(isinstance(x, int) for row in total_chern(c).equivariant for x in row)


def test_verify_theorem1_narrow_slice():
    report = verify_theorem1(max_width=12, workers=1)
    assert report.passed
    assert report.data["configurations"] == 0
    assert report.summary.endswith("width <= 12 is below the proved bound 40")


def test_theorem4_parametric_weight_systems():
    assert theorem4_weight_system(1, 3) == O_WS
    assert theorem4_weight_system(2, 3) == (
        (2, 3, 4, 5, 7),
        (-2, 1, 4, 5, 7),
        (-5, -1, 2, 3, 7),
        (-7, -3, -2, 1, 5),
        (-7, -5, -4, -1, 2),
        (-7, -5, -4, -3, -2),
    )
    assert theorem4_weight_system(1, 6)[0] == (1, 3, 5, 7, 8)


def test_verify_theorem4_param_errors():
    with pytest.raises(ValueError):
        verify_theorem4(1, 4)  # second gap not divisible by 3
    with pytest.raises(ValueError):
        verify_theorem4(2, 6)  # gcd(2, 2) = 2: never effective
    with pytest.raises(ValueError):
        verify_theorem4(0, 3)
    with pytest.raises(ValueError):
        verify_theorem4(1.9, 3.2)  # never truncated to (1, 3)
    with pytest.raises(ValueError):
        verify_theorem4(True, 3)


def test_verify_theorem3_report_shape():
    report = verify_theorem3(workers=1)
    assert report.passed
    assert report.data["gaps"] == [1, 3, 2, 3, 1]
    assert report.data["one_edge_per_pair"] is True
    assert report.data["ring_q"] == ["1", "1", "1/3", "1/6", "1/18", "1/18"]
    doc = report.to_dict()
    assert doc["name"] == "thm3" and doc["passed"] is True


@pytest.fixture()
def cold_pool(monkeypatch):
    """An empty verifier pool for the test, restored afterwards."""
    monkeypatch.setattr(search, "_POOL", {})


def test_theorem3_reads_the_filtered_search_off_the_pool(cold_pool, monkeypatch):
    # slow reference: the search filtered to a largest weight on (0, 5)
    ref = enumerate_configurations(SearchSpec(5, 10, largest_from=((0, 5),)), workers=1)
    report = verify_theorem3(workers=1)
    pool = search._POOL[SearchSpec(5, 10)]
    # the (0, 5) filter is its own mirror image, so selecting it off the pool
    # keeps the canonical members the filtered search keeps (3 of 4)
    got = [c for c in pool.configurations if c.max_weight() == 5 and _has_edge(c, 0, 5, 5)]
    expected = [c for c in ref.configurations if c.max_weight() == 5]
    assert len(got) == 3 < len(pool.configurations) and got == expected
    monkeypatch.setattr(search, "_POOL", {SearchSpec(5, 10): ref})
    assert verify_theorem3(workers=1).data == report.data


def test_verifiers_share_one_search(cold_pool, monkeypatch):
    calls = []
    real = search.enumerate_configurations

    def counted(spec, workers=None):
        calls.append(spec)
        return real(spec, workers=workers)

    monkeypatch.setattr(search, "enumerate_configurations", counted)
    reports = [verify_theorem1(10, 5, workers=1), verify_theorem2(10, workers=1)]
    reports.append(verify_theorem3(workers=1))
    assert all(r.passed for r in reports)
    assert calls == [SearchSpec(5, 10)]
    # moved with the ring cut on downward weight products
    assert reports[2].stats.to_dict() == _stats(10652, 1, 19826, 615, 440, 862, 156)


def _doubled_05(o):
    """``o`` with its edges (0, 4) and (1, 5), both of weight 3, traded for a
    second weight-5 edge (0, 5) and a weight-3 edge (1, 4): every slot count
    still holds, and |5| sits twice at vertices 0 and 5."""
    edges = [e for e in o.edges if (e.lo, e.hi) not in ((0, 4), (1, 5))]
    return Configuration(o.profile, (*edges, WeightEdge(0, 5, 5), WeightEdge(1, 4, 3)))


@pytest.mark.parametrize(
    "make, verdict",
    [
        (lambda: builtin("o"), "1/1/1 members; equivalent, |5| simple at every endpoint"),
        # width 5, and its only weight-5 edge is (0, 5)
        (
            lambda: builtin("cp5", 1, 1, 1, 1, 1),
            "1/0/0 members; NOT equivalent, multiplicity failure",
        ),
        (lambda: _doubled_05(builtin("o")), "1/1/1 members; equivalent, multiplicity failure"),
    ],
    ids=["o", "cp5-one-edge", "o-doubled-05"],
)
def test_theorem2_multiplicity_verdict(make, verdict, monkeypatch):
    # a pool of one configuration, read as a member of first-Chern multiple 3
    config = make()

    def pool(spec, workers):
        return search.SearchResult(spec, (config,), SearchStats())

    monkeypatch.setattr(search, "_pool", pool)
    monkeypatch.setattr(search, "compute_c1", lambda c: 3)
    report = verify_theorem2(10, workers=1)
    assert report.data["c1_3"] == [0]
    assert report.passed == verdict.endswith("simple at every endpoint")
    assert report.summary == (
        f"pool of 1 configurations: conditions select {verdict}; "
        "width <= 10 is below the proved bound 50"
    )


def test_verifier_output_independent_of_workers(monkeypatch):
    docs = []
    for workers in (1, 2):
        monkeypatch.setattr(search, "_POOL", {})  # a warm pool would compare one search
        docs.append(json.dumps(verify_theorem2(10, workers=workers).to_dict(), sort_keys=True))
    assert docs[0] == docs[1]


def test_warm_pool_still_rejects_bad_worker_counts(cold_pool, monkeypatch):
    assert verify_theorem2(max_width=10, workers=1).passed
    for workers in (0, -3, 1.5, True):
        with pytest.raises(SpecError):
            verify_theorem2(max_width=10, workers=workers)
    for env in ("0", "abc"):
        monkeypatch.setenv("HAMFIX_THREADS", env)
        with pytest.raises(SpecError):
            verify_theorem2(max_width=10)
    for width in (10.0, True):
        with pytest.raises(SpecError):
            verify_theorem2(max_width=width, workers=1)



@pytest.mark.parametrize("extremal", [True, False], ids=["extremal", "no-extremal"])
def test_width_bound_is_exhaustive(extremal):
    # k * width = Gamma_0 - Gamma_5 <= 2 * 5 * max_weight: every gap vector just
    # past the bound, mirror-canonical or not, is cut before its first cell
    for w in (1, 2, 3):
        spec = SearchSpec(w, prune_extremal=extremal)
        assert spec.max_width == 10 * w
        cuts = itertools.combinations(range(1, 10 * w + 4), DIM)
        vectors = [tuple(b - a for a, b in zip((0, *c), c)) for c in cuts if c[-1] > 10 * w]
        stats, sink = SearchStats(), []
        for gaps in vectors:
            search._search_gap(spec, gaps, stats, sink)
        assert stats.nodes == 0 and sink == []
        assert stats.pruned["extremal"] + stats.pruned["gamma"] == len(vectors)


def test_default_width_is_the_proved_bound(cold_pool, monkeypatch):
    assert SearchSpec(5) == SearchSpec(5, 50) and hash(SearchSpec(5)) == hash(SearchSpec(5, 50))
    assert SearchSpec(4, None, c1=3).max_width == 40
    for bad in ("5", 5.0, None):
        with pytest.raises(SpecError):
            SearchSpec(bad)  # checked before a width is derived from it
    calls = []

    def stub(spec, workers=None):
        calls.append(spec)
        return search.SearchResult(spec, (), SearchStats())

    monkeypatch.setattr(search, "enumerate_configurations", stub)
    report = verify_theorem2(workers=1)
    verify_theorem1(max_weight=5, workers=1)
    assert calls == [SearchSpec(5, 50)]
    assert report.summary.endswith("width <= 50 covers the proved bound 50")
    assert verify_theorem2(10, workers=1).summary.endswith("width <= 10 is below the proved bound 50")
    thm1 = verify_theorem1(workers=1)
    assert calls == [SearchSpec(5, 50), SearchSpec(5, 10), SearchSpec(4, 40)]
    assert thm1.summary == (
        "no valid configuration with weights <= 4; width <= 40 covers the proved bound 40"
    )
